package server

import (
	"fmt"
	"math"
	"net/http"
	"sort"

	"viewseeker"
	"viewseeker/internal/dataset"
	"viewseeker/internal/obs"
)

// HostLive registers a WAL-backed appendable table under its name. Its
// current version is served exactly like a static table — sessions build
// against the version current at creation and keep it — and POST
// /api/tables/{name}/append grows it. rec, when non-nil, feeds the WAL
// recovery counters exported at /metricz.
//
// Hosting also starts the table's maintainer (see maintain.go), which
// keeps exact-session offline state warm across appends until
// Server.Close; a server that is already closed hosts the table without
// one.
func (s *Server) HostLive(lt *viewseeker.LiveTable, rec *viewseeker.LiveRecovery) {
	cur := lt.Current()
	lt.Instrument(s.metrics, rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live[cur.Name] = lt
	s.tables[cur.Name] = cur
	if !s.closed && s.maintainers[cur.Name] == nil {
		s.maintainers[cur.Name] = newMaintainer(s, cur.Name, lt)
	}
}

// liveStatus is one live table's streaming state in GET /healthz.
type liveStatus struct {
	Table string `json:"table"`
	// Seq is the last committed WAL sequence number (0 = base only).
	Seq uint64 `json:"seq"`
	// Rows is the current version's row count.
	Rows int `json:"rows"`
	// WalBytes is the on-disk size of the (compacted) log: replay cost on
	// the next restart is proportional to it.
	WalBytes int64 `json:"walBytes"`
	// CheckpointSeq is the seq covered by the newest snapshot (0: none).
	CheckpointSeq uint64 `json:"checkpointSeq"`
	// CheckpointAgeSeconds is the snapshot's age (-1: none).
	CheckpointAgeSeconds int64 `json:"checkpointAgeSeconds"`
	// Maintained counts the offline states the table's maintainer hosts.
	Maintained int `json:"maintained"`
	// MaintainerLag is how many versions the slowest hosted offline state
	// trails the table (0: fully caught up, or nothing hosted).
	MaintainerLag uint64 `json:"maintainerLag"`
}

// liveStatuses snapshots every hosted live table's state, sorted by name.
func (s *Server) liveStatuses() []liveStatus {
	s.mu.Lock()
	names := make([]string, 0, len(s.live))
	for name := range s.live {
		names = append(names, name)
	}
	sort.Strings(names)
	lts := make([]*viewseeker.LiveTable, len(names))
	mts := make([]*maintainer, len(names))
	for i, name := range names {
		lts[i] = s.live[name]
		mts[i] = s.maintainers[name]
	}
	s.mu.Unlock()
	out := make([]liveStatus, len(names))
	for i, name := range names {
		st := lts[i].Status()
		out[i] = liveStatus{
			Table: name, Seq: st.Seq, Rows: st.Rows, WalBytes: st.WalBytes,
			CheckpointSeq: st.CheckpointSeq, CheckpointAgeSeconds: st.CheckpointAgeSeconds,
		}
		if mts[i] != nil {
			out[i].MaintainerLag, out[i].Maintained = mts[i].lag()
		}
	}
	return out
}

// appendRequest is the POST /api/tables/{name}/append body: rows in schema
// column order, JSON-typed (numbers for int/float columns — int cells must
// be integral —, strings, bools, null for SQL NULL).
type appendRequest struct {
	Rows [][]any `json:"rows"`
}

// appendResponse reports the committed batch. Synced is false when the
// batch committed but its fsync failed — durability is one sync behind;
// the server keeps serving and the next append or shutdown retries.
type appendResponse struct {
	Seq     uint64 `json:"seq"`
	Rows    int    `json:"rows"`
	Version string `json:"version"`
	Synced  bool   `json:"synced"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	_, span := obs.StartSpan(r.Context(), "append")
	defer span.End()
	name := r.PathValue("name")
	s.mu.Lock()
	lt := s.live[name]
	s.mu.Unlock()
	if lt == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no live table %q", name))
		return
	}
	var req appendRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty append batch"))
		return
	}
	rows, err := decodeRows(lt.Current().Schema, req.Rows)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seq, aerr := lt.Append(rows)
	if seq == 0 {
		// Nothing committed: the WAL write failed outright.
		writeError(w, http.StatusInternalServerError, aerr)
		return
	}
	if aerr != nil {
		s.log.Error("append fsync lagging", "table", name, "seq", seq, "err", aerr)
	}
	s.mu.Lock()
	s.tables[name] = lt.Current()
	s.mu.Unlock()
	s.notifyLive(name)
	writeJSON(w, http.StatusOK, appendResponse{
		Seq: seq, Rows: len(rows), Version: lt.VersionRef(), Synced: aerr == nil,
	})
}

// decodeRows converts JSON cells to typed values per the schema, rejecting
// shape and type mismatches with the row/column they occur at.
func decodeRows(schema *dataset.Schema, in [][]any) ([][]dataset.Value, error) {
	out := make([][]dataset.Value, len(in))
	for i, row := range in {
		if len(row) != schema.Len() {
			return nil, fmt.Errorf("row %d has %d values, schema has %d columns", i, len(row), schema.Len())
		}
		vals := make([]dataset.Value, len(row))
		for j, cell := range row {
			v, err := decodeCell(schema.Columns[j], cell)
			if err != nil {
				return nil, fmt.Errorf("row %d column %q: %w", i, schema.Columns[j].Name, err)
			}
			vals[j] = v
		}
		out[i] = vals
	}
	return out, nil
}

// maxExactInt is the largest integer a JSON number carries without
// rounding: every integer in [-maxExactInt, maxExactInt] is a float64.
const maxExactInt = 1<<53 - 1

func decodeCell(def dataset.ColumnDef, cell any) (dataset.Value, error) {
	if cell == nil {
		return dataset.Null, nil
	}
	switch def.Kind {
	case dataset.KindInt:
		f, ok := cell.(float64)
		if !ok || f != math.Trunc(f) || math.IsInf(f, 0) {
			return dataset.Value{}, fmt.Errorf("want an integer, got %v", cell)
		}
		// Past maxExactInt the decoded float has already rounded the value,
		// and past ±2^63 the conversion to int64 is implementation-defined.
		if math.Abs(f) > maxExactInt {
			return dataset.Value{}, fmt.Errorf("integer %v is outside ±(2^53 - 1), the range a JSON number holds exactly", cell)
		}
		return dataset.Int(int64(f)), nil
	case dataset.KindFloat:
		f, ok := cell.(float64)
		if !ok {
			return dataset.Value{}, fmt.Errorf("want a number, got %v", cell)
		}
		return dataset.Float(f), nil
	case dataset.KindString:
		s, ok := cell.(string)
		if !ok {
			return dataset.Value{}, fmt.Errorf("want a string, got %v", cell)
		}
		return dataset.StringVal(s), nil
	case dataset.KindBool:
		b, ok := cell.(bool)
		if !ok {
			return dataset.Value{}, fmt.Errorf("want a bool, got %v", cell)
		}
		return dataset.Bool(b), nil
	default:
		return dataset.Value{}, fmt.Errorf("column has invalid kind")
	}
}
