package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"viewseeker/internal/faultfs"
	"viewseeker/internal/obs"
	"viewseeker/internal/retry"
	"viewseeker/internal/wal"
)

// Journal record operations.
const (
	OpCreate   = "create"
	OpFeedback = "feedback"
	OpDelete   = "delete"
)

// Record is one journal entry: a session lifecycle event. Create records
// carry the full session configuration; since selection and refinement are
// deterministic functions of (configuration, labels), replaying a
// session's create followed by its feedback records through a fresh seeker
// reconstructs the estimator exactly.
type Record struct {
	Op      string `json:"op"`
	Session string `json:"session"`

	// Create fields.
	Table    string  `json:"table,omitempty"`
	Query    string  `json:"query,omitempty"`
	K        int     `json:"k,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	Strategy string  `json:"strategy,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	// Seq is the WAL sequence of the live-table version the session saw
	// (0, omitted, for static tables and a live table's base). Restore
	// refuses to replay a session over any other version.
	Seq uint64 `json:"seq,omitempty"`

	// Feedback fields (no omitempty: view 0 and label 0 are meaningful).
	View  int     `json:"view"`
	Label float64 `json:"label"`
}

// Journal is an append-only log of session records: one JSON record per
// frame of a wal.Log, so every record carries a CRC-32C, a sequence number
// and the frame log's recovery semantics. Safe for concurrent use.
//
// Failure semantics are the frame log's: a failed append is retried on a
// bounded exponential-backoff schedule (SetRetryPolicy), and a torn write
// is resumed at the byte where it stopped. Once the schedule is exhausted
// the partial frame is truncated away, the error is returned and the
// journal marks itself Degraded. The next successful append clears the
// flag, so a transient disk fault costs only the records written while it
// lasted. If that truncation fails too, the log is poisoned: every later
// append fails and the journal stays Degraded until a restart reopens it,
// because a record behind an unrepaired tear would be lost to recovery.
//
// Appends are not fsynced one by one; Sync and Close flush them.
type Journal struct {
	mu       sync.Mutex
	log      *wal.Log
	rec      wal.Recovery
	degraded atomic.Bool

	// Metric handles, nil until Instrument is called; nil-safe throughout.
	mDegradedTransitions *obs.Counter
	mDegraded            *obs.Gauge
	mAppendSeconds       *obs.Histogram
}

// OpenJournal opens (creating if needed) an append-only journal at path,
// truncating a torn tail left by a crash (see Recovery).
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(faultfs.OS{}, path)
}

// OpenJournalFS is OpenJournal over an explicit filesystem — the
// fault-injection seam.
func OpenJournalFS(fs faultfs.FS, path string) (*Journal, error) {
	if err := refuseJSONL(fs, path); err != nil {
		return nil, err
	}
	// Sync only on Sync and Close: a per-record fsync would put a disk
	// flush on every create and feedback request.
	log, rec, err := wal.Open(fs, path, wal.Options{SyncEvery: math.MaxInt}, nil)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	return &Journal{log: log, rec: *rec}, nil
}

// refuseJSONL rejects a journal in the JSON-lines format older versions
// wrote. Its first bytes read as an oversized frame length, so recovery
// would take the whole file for a torn tail and truncate it to nothing.
func refuseJSONL(fs faultfs.FS, path string) error {
	f, err := fs.Open(path)
	if err != nil {
		return nil // a missing file is an empty journal; others surface on open
	}
	var first [1]byte
	_, err = io.ReadFull(f, first[:])
	f.Close()
	if err != nil || first[0] != '{' {
		return nil
	}
	errFound := errors.New("found")
	if _, err := wal.Scan(fs, path, 0, func(uint64, []byte) error { return errFound }); errors.Is(err, errFound) {
		return nil // a valid first frame whose length happens to start with '{'
	}
	return fmt.Errorf("store: %s is a JSON-lines session journal from an older version; "+
		"move it aside (its sessions cannot be restored by this version)", path)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.log.Path() }

// Recovery reports what opening the journal found on disk: the committed
// prefix and the torn tail, if any, that was truncated away.
func (j *Journal) Recovery() wal.Recovery { return j.rec }

// SetRetryPolicy replaces the append retry schedule (tests inject a
// recording sleeper to assert deterministic backoff timing).
func (j *Journal) SetRetryPolicy(p retry.Policy) { j.log.SetRetryPolicy(p) }

// Degraded reports whether the last append failed: records written while
// the flag is set were lost and will not survive a restart.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// Instrument registers the journal's metrics against reg: append count,
// bytes (frames included) and latency, degraded-state gauge and transition
// counter, and the shared retry counters (one series across journal, cache
// and WAL). Call once at wiring time; an uninstrumented journal records
// nothing.
func (j *Journal) Instrument(reg *obs.Registry) {
	j.log.Instrument(wal.Metrics{
		Appends:       reg.Counter("viewseeker_store_journal_appends_total"),
		Bytes:         reg.Counter("viewseeker_store_journal_bytes_total"),
		RetryBackoffs: reg.Counter("viewseeker_retry_backoffs_total"),
		RetryExhausts: reg.Counter("viewseeker_retry_exhausted_total"),
	})
	j.mu.Lock()
	defer j.mu.Unlock()
	j.mAppendSeconds = reg.Histogram("viewseeker_store_journal_append_seconds", obs.DurationBuckets)
	j.mDegraded = reg.Gauge(`viewseeker_store_degraded{component="journal"}`)
	j.mDegradedTransitions = reg.Counter(`viewseeker_store_degraded_transitions_total{component="journal"}`)
}

// Append writes one record as one frame. On success the degraded flag
// clears; on failure it sets and the error is returned — callers deciding
// to keep serving without durability (the HTTP server does) log it and
// move on.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	start := time.Now()
	_, err = j.log.Append(payload)
	j.mAppendSeconds.ObserveDuration(time.Since(start))
	if err != nil {
		if !j.degraded.Swap(true) {
			j.mDegradedTransitions.Inc()
		}
		j.mDegraded.Set(1)
		return fmt.Errorf("store: journal append: %w", err)
	}
	j.degraded.Store(false)
	j.mDegraded.Set(0)
	return nil
}

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error { return j.log.Sync() }

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error { return j.log.Close() }

// ReadJournal loads every committed record from a journal file, in
// append order. A missing file is an empty journal. The read stops at the
// committed prefix's end: a torn or corrupted frame and everything after
// it is not returned (OpenJournal truncates it). A frame that passes its
// checksum but does not decode as a record is an error, never skipped —
// it was written whole, so skipping it would replay a session with a
// label missing.
func ReadJournal(path string) ([]Record, error) {
	return ReadJournalFS(faultfs.OS{}, path)
}

// ReadJournalFS is ReadJournal over an explicit filesystem.
func ReadJournalFS(fs faultfs.FS, path string) ([]Record, error) {
	if err := refuseJSONL(fs, path); err != nil {
		return nil, err
	}
	var out []Record
	_, err := wal.Scan(fs, path, 0, func(seq uint64, payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("store: journal %s record %d: %w", path, seq, err)
		}
		switch rec.Op {
		case OpCreate, OpFeedback, OpDelete:
		default:
			return fmt.Errorf("store: journal %s record %d: unknown op %q", path, seq, rec.Op)
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SessionLog is the collapsed journal state of one session that is still
// live at the end of the log: its create record plus its feedback records
// in arrival order.
type SessionLog struct {
	Create   Record
	Feedback []Record
}

// Replay collapses a record stream into the live sessions' logs, in
// creation order: deletes remove sessions, feedback for unknown (deleted
// or never created) sessions is dropped, and a second create under an
// existing id replaces the first — the log's last writer wins, matching
// what the server it journals would have in memory.
func Replay(recs []Record) []SessionLog {
	byID := make(map[string]*SessionLog)
	var order []string
	for _, rec := range recs {
		switch rec.Op {
		case OpCreate:
			if _, exists := byID[rec.Session]; !exists {
				order = append(order, rec.Session)
			}
			byID[rec.Session] = &SessionLog{Create: rec}
		case OpFeedback:
			if log, ok := byID[rec.Session]; ok {
				log.Feedback = append(log.Feedback, rec)
			}
		case OpDelete:
			delete(byID, rec.Session)
		}
	}
	out := make([]SessionLog, 0, len(byID))
	for _, id := range order {
		if log, ok := byID[id]; ok {
			out = append(out, *log)
		}
	}
	return out
}
