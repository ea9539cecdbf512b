package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/live"
	"viewseeker/internal/store"
)

// liveTestServer hosts a SYN live table and returns the raw server too,
// so tests can reach its metrics registry.
func liveTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := liveServer(t, Options{}, filepath.Join(t.TempDir(), "syn.wal"))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// liveServer hosts the SYN live table logged at walPath (replaying what
// the log already holds) under opts.
func liveServer(t *testing.T, opts Options, walPath string) *Server {
	t.Helper()
	table := dataset.GenerateSYN(dataset.SYNConfig{Rows: 2000, Seed: 9})
	lt, rec, err := live.Open(nil, walPath, table, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lt.Close() })
	srv := NewWithOptions(opts)
	t.Cleanup(srv.Close)
	srv.HostLive(lt, rec)
	return srv
}

// caughtUp reports whether the server's maintainer has advanced every
// hosted offline state to the live table's current version.
func caughtUp(srv *Server) bool {
	st := srv.liveStatuses()
	return len(st) == 1 && st[0].MaintainerLag == 0
}

// waitFor polls cond until it holds or the deadline passes — the
// maintainer runs on its own goroutine, so tests observe it converge
// rather than stepping it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// synJSONRows builds valid append rows for SYN's schema (d1..d4 floats,
// m1..m4 floats — every column numeric).
func synJSONRows(n int) [][]any {
	table := dataset.GenerateSYN(dataset.SYNConfig{Rows: 1, Seed: 9})
	out := make([][]any, n)
	for i := range out {
		row := make([]any, table.Schema.Len())
		for j := range row {
			row[j] = 0.01 * float64(i+j)
		}
		out[i] = row
	}
	return out
}

func TestAppendEndpoint(t *testing.T) {
	ts, srv := liveTestServer(t)

	var resp appendResponse
	doJSON(t, "POST", ts.URL+"/api/tables/syn/append", map[string]any{"rows": synJSONRows(5)},
		http.StatusOK, &resp)
	if resp.Seq != 1 || resp.Rows != 5 || !resp.Synced {
		t.Fatalf("append response %+v", resp)
	}
	if !strings.Contains(resp.Version, "@1") {
		t.Fatalf("version ref %q does not carry the sequence", resp.Version)
	}

	// The hosted table advanced: table listing reflects the new rows and
	// new sessions build over them.
	var tables []tableInfo
	doJSON(t, "GET", ts.URL+"/api/tables", nil, http.StatusOK, &tables)
	if len(tables) != 1 || tables[0].Rows != 2005 {
		t.Fatalf("tables after append = %+v", tables)
	}
	var sess sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions",
		map[string]any{"table": "syn", "query": dataset.SYNQuery, "k": 3},
		http.StatusCreated, &sess)
	if sess.NumViews == 0 {
		t.Fatal("session over the appended table has no views")
	}

	// Health surfaces the WAL state; metrics carry the wal series.
	var health healthResponse
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if len(health.Live) != 1 || health.Live[0].Seq != 1 || health.Live[0].Rows != 2005 {
		t.Fatalf("healthz live = %+v", health.Live)
	}
	snap := srv.Metrics().Snapshot()
	if snap["viewseeker_wal_appends_total"] != 1 {
		t.Fatalf("wal appends metric = %v", snap["viewseeker_wal_appends_total"])
	}
	if snap["viewseeker_live_appended_rows_total"] != 5 {
		t.Fatalf("live appended rows metric = %v", snap["viewseeker_live_appended_rows_total"])
	}
}

func TestAppendEndpointRejectsBadRows(t *testing.T) {
	ts, _ := liveTestServer(t)
	url := ts.URL + "/api/tables/syn/append"
	// Wrong arity.
	doJSON(t, "POST", url, map[string]any{"rows": [][]any{{0.1}}}, http.StatusBadRequest, nil)
	// Wrong type (string in a float column).
	bad := synJSONRows(1)
	bad[0][0] = "not a number"
	doJSON(t, "POST", url, map[string]any{"rows": bad}, http.StatusBadRequest, nil)
	// Empty batch.
	doJSON(t, "POST", url, map[string]any{"rows": [][]any{}}, http.StatusBadRequest, nil)
	// Unknown table.
	doJSON(t, "POST", ts.URL+"/api/tables/nope/append", map[string]any{"rows": synJSONRows(1)},
		http.StatusNotFound, nil)

	// Nothing leaked into the hosted table.
	var tables []tableInfo
	doJSON(t, "GET", ts.URL+"/api/tables", nil, http.StatusOK, &tables)
	if tables[0].Rows != 2000 {
		t.Fatalf("rejected appends changed the table: %d rows", tables[0].Rows)
	}
}

// TestDecodeRowsRejectsUnrepresentableInts: an integral JSON number an
// int column cannot hold exactly — past 2^53 - 1 the float has already
// rounded it, past ±2^63 int64 cannot hold it at all — is rejected with
// its row and column named; the edges of the exact range are accepted.
// (The SYN fixture the endpoint tests host has no int column.)
func TestDecodeRowsRejectsUnrepresentableInts(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "s", Kind: dataset.KindString},
		dataset.ColumnDef{Name: "n", Kind: dataset.KindInt},
	)
	for _, f := range []float64{1 << 53, -(1 << 53), 1e19, -1e19, 1e300} {
		_, err := decodeRows(schema, [][]any{{"a", 1.0}, {"b", f}})
		if err == nil || !strings.Contains(err.Error(), `row 1 column "n"`) {
			t.Errorf("%g: err = %v, want a rejection naming row 1 column \"n\"", f, err)
		}
	}
	rows, err := decodeRows(schema, [][]any{{"a", float64(1<<53 - 1)}, {"b", -float64(1<<53 - 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rows[0][1].AsInt(); got != 1<<53-1 {
		t.Fatalf("2^53 - 1 decoded as %d", got)
	}
	if got, _ := rows[1][1].AsInt(); got != -(1<<53 - 1) {
		t.Fatalf("-(2^53 - 1) decoded as %d", got)
	}
}

// TestAppendDoesNotDisturbSessions pins the MVCC contract at the API
// level: a session created before an append keeps answering over the
// version it was built on.
func TestAppendDoesNotDisturbSessions(t *testing.T) {
	ts, _ := liveTestServer(t)
	var sess sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions",
		map[string]any{"table": "syn", "query": dataset.SYNQuery, "k": 3},
		http.StatusCreated, &sess)
	before := sess.TargetRows

	doJSON(t, "POST", ts.URL+"/api/tables/syn/append",
		map[string]any{"rows": synJSONRows(50)}, http.StatusOK, nil)

	var after sessionInfo
	doJSON(t, "GET", ts.URL+"/api/sessions/"+sess.ID, nil, http.StatusOK, &after)
	if after.TargetRows != before {
		t.Fatalf("session target grew from %d to %d after an append", before, after.TargetRows)
	}
	var next nextResponse
	doJSON(t, "GET", ts.URL+"/api/sessions/"+sess.ID+"/next", nil, http.StatusOK, &next)
	if next.Done {
		t.Fatal("session broke after append")
	}
}

// TestMaintainerKeepsSessionsWarm: an exact session on a hosted live table
// builds from the maintained offline state, the background maintainer
// advances that state after appends (healthz lag returns to 0), and the
// next session is warm at the new version.
func TestMaintainerKeepsSessionsWarm(t *testing.T) {
	ts, srv := liveTestServer(t)
	var sess sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions",
		map[string]any{"table": "syn", "query": dataset.SYNQuery, "k": 3},
		http.StatusCreated, &sess)
	if !sess.Cached {
		t.Fatal("exact session on a hosted live table was not served warm")
	}
	var health healthResponse
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if len(health.Live) != 1 || health.Live[0].Maintained != 1 {
		t.Fatalf("healthz live after session = %+v", health.Live)
	}

	// All five appended rows match SYNQuery's predicate.
	doJSON(t, "POST", ts.URL+"/api/tables/syn/append",
		map[string]any{"rows": synJSONRows(5)}, http.StatusOK, nil)
	waitFor(t, "maintainer to catch up", func() bool {
		var h healthResponse
		doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
		return len(h.Live) == 1 && h.Live[0].Seq == 1 && h.Live[0].MaintainerLag == 0
	})

	var sess2 sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions",
		map[string]any{"table": "syn", "query": dataset.SYNQuery, "k": 3},
		http.StatusCreated, &sess2)
	if !sess2.Cached {
		t.Fatal("post-append session was not served warm")
	}
	if sess2.TargetRows != sess.TargetRows+5 {
		t.Fatalf("post-append session sees %d target rows, want %d",
			sess2.TargetRows, sess.TargetRows+5)
	}
	// The maintainer took the suffix path, not a rebuild storm — but either
	// way the rebuild counter must exist on the registry.
	if _, ok := srv.Metrics().Snapshot()["viewseeker_live_rebuilds_total"]; !ok {
		t.Fatal("rebuild counter not registered")
	}
}

// TestServerCloseStopsMaintainer: Close ends background maintenance
// without breaking the serving path — appends still commit, and the
// now-unmaintained state shows up as lag in healthz.
func TestServerCloseStopsMaintainer(t *testing.T) {
	ts, srv := liveTestServer(t)
	doJSON(t, "POST", ts.URL+"/api/sessions",
		map[string]any{"table": "syn", "query": dataset.SYNQuery, "k": 3},
		http.StatusCreated, nil)
	srv.Close()
	srv.Close() // idempotent

	var resp appendResponse
	doJSON(t, "POST", ts.URL+"/api/tables/syn/append",
		map[string]any{"rows": synJSONRows(5)}, http.StatusOK, &resp)
	if resp.Seq != 1 {
		t.Fatalf("append after Close: %+v", resp)
	}
	var health healthResponse
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if len(health.Live) != 1 || health.Live[0].MaintainerLag != 1 {
		t.Fatalf("healthz after Close+append = %+v", health.Live)
	}
}

// TestCheckpointEndpoint: the manual checkpoint route persists the current
// version, compacts the log, and reports both through healthz.
func TestCheckpointEndpoint(t *testing.T) {
	ts, _ := liveTestServer(t)
	for i := 0; i < 3; i++ {
		doJSON(t, "POST", ts.URL+"/api/tables/syn/append",
			map[string]any{"rows": synJSONRows(5)}, http.StatusOK, nil)
	}
	var health healthResponse
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health.Live[0].WalBytes == 0 || health.Live[0].CheckpointSeq != 0 {
		t.Fatalf("healthz before checkpoint = %+v", health.Live)
	}

	var ck checkpointResponse
	doJSON(t, "POST", ts.URL+"/api/tables/syn/checkpoint", nil, http.StatusOK, &ck)
	if ck.Seq != 3 {
		t.Fatalf("checkpoint seq = %d, want 3", ck.Seq)
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health.Live[0].WalBytes != 0 || health.Live[0].CheckpointSeq != 3 ||
		health.Live[0].CheckpointAgeSeconds < 0 {
		t.Fatalf("healthz after checkpoint = %+v", health.Live)
	}
	// Nothing new to cover: a second checkpoint is a no-op.
	doJSON(t, "POST", ts.URL+"/api/tables/syn/checkpoint", nil, http.StatusOK, &ck)
	if ck.Seq != 0 {
		t.Fatalf("idle checkpoint seq = %d, want 0", ck.Seq)
	}
	doJSON(t, "POST", ts.URL+"/api/tables/nope/checkpoint", nil, http.StatusNotFound, nil)
}

// TestMaintainedEvictionRehydrationBitIdentity is the live-table twin of
// TestEvictionRehydrationBitIdentity: an exact session minted from the
// maintained offline version is evicted before every step under a 1-byte
// budget while appends and maintainer advances move the table on, and its
// rehydrations — a fresh overlay on the version it was minted from, plus
// label replay — answer byte-for-byte like an unbudgeted twin that never
// evicts.
func TestMaintainedEvictionRehydrationBitIdentity(t *testing.T) {
	budgeted := liveServer(t, Options{SessionBudgetBytes: 1}, filepath.Join(t.TempDir(), "syn.wal"))
	control := liveServer(t, Options{}, filepath.Join(t.TempDir(), "syn.wal"))
	bh, ch := budgeted.Handler(), control.Handler()

	create := map[string]any{"table": "syn", "query": dataset.SYNQuery, "k": 5, "seed": 7}
	var bInfo, cInfo sessionInfo
	for _, tw := range []struct {
		h    http.Handler
		info *sessionInfo
	}{{bh, &bInfo}, {ch, &cInfo}} {
		if rec := serveJSON(t, tw.h, context.Background(), "POST", "/api/sessions", create, tw.info); rec.Code != http.StatusCreated {
			t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
		}
		if !tw.info.Cached {
			t.Fatal("exact live-table session was not minted from the maintained version")
		}
	}

	steps := []struct {
		view  int
		label float64
	}{{4, 1}, {11, 0}, {42, 0.5}, {7, 1}, {19, 0}, {3, 0.25}}
	for i, fb := range steps {
		budgeted.EvictIdleSessions()
		body := map[string]any{"index": fb.view, "label": fb.label}
		bCode, bBody := rawJSON(t, bh, "POST", "/api/sessions/"+bInfo.ID+"/feedback", body)
		cCode, cBody := rawJSON(t, ch, "POST", "/api/sessions/"+cInfo.ID+"/feedback", body)
		if bCode != http.StatusOK || cCode != http.StatusOK {
			t.Fatalf("step %d: feedback = %d / %d", i, bCode, cCode)
		}
		if bBody != cBody {
			t.Fatalf("step %d: post-eviction feedback diverged:\n got %s\nwant %s", i, bBody, cBody)
		}
		for _, route := range []string{"/top", "/weights"} {
			_, b := rawJSON(t, bh, "GET", "/api/sessions/"+bInfo.ID+route, nil)
			_, c := rawJSON(t, ch, "GET", "/api/sessions/"+cInfo.ID+route, nil)
			if b != c {
				t.Fatalf("step %d: %s diverged after rehydration:\n got %s\nwant %s", i, route, b, c)
			}
		}
		// Move both tables on and let their maintainers advance before the
		// next eviction.
		for _, h := range []http.Handler{bh, ch} {
			if code, out := rawJSON(t, h, "POST", "/api/tables/syn/append",
				map[string]any{"rows": synJSONRows(5)}); code != http.StatusOK {
				t.Fatalf("step %d: append = %d: %s", i, code, out)
			}
		}
		waitFor(t, "maintainers to advance", func() bool { return caughtUp(budgeted) && caughtUp(control) })
	}

	snap := budgeted.Metrics().Snapshot()
	if snap["viewseeker_session_evictions_total"] == 0 || snap["viewseeker_session_rehydrations_total"] == 0 {
		t.Fatalf("evictions %v, rehydrations %v: the maintained session never left RAM",
			snap["viewseeker_session_evictions_total"], snap["viewseeker_session_rehydrations_total"])
	}
}

// TestRestoreRefusesAdvancedLiveTable: a journalled session on a live
// table names the version it saw (its create record's seq). After a
// restart at which the table serves another version, restore reports the
// session and skips it — it answers 404 — instead of silently replaying
// it over rows it never saw; a session created at the current version
// restores normally and answers byte for byte as before the restart. The
// append widens every column's range with one 5.0 row among five, so the
// maintained version it was minted from must refit its layouts, as the
// restored session's cold rebuild does.
func TestRestoreRefusesAdvancedLiveTable(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "syn.wal")
	journal, err := store.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv := liveServer(t, Options{Journal: journal}, walPath)
	h := srv.Handler()
	body := map[string]any{"table": "syn", "query": dataset.SYNQuery, "k": 3}
	var stale, current sessionInfo
	serveJSON(t, h, context.Background(), "POST", "/api/sessions", body, &stale)
	// Rows 1..4 of synJSONRows(6) lie inside SYN's ranges (row 0's zeros
	// would not); the fifth row moves every range.
	rows := synJSONRows(6)[1:]
	for j := range rows[4] {
		rows[4][j] = 5.0
	}
	if code, out := rawJSON(t, h, "POST", "/api/tables/syn/append",
		map[string]any{"rows": rows}); code != http.StatusOK {
		t.Fatalf("append = %d: %s", code, out)
	}
	// The maintained version must reach the appended rows first: a session
	// minted from a lagging version would (rightly) be refused too.
	waitFor(t, "maintainer to advance", func() bool { return caughtUp(srv) })
	serveJSON(t, h, context.Background(), "POST", "/api/sessions", body, &current)
	if stale.ID == "" || current.ID == "" {
		t.Fatal("session creation failed")
	}
	for i, fb := range []map[string]any{{"index": 4, "label": 1}, {"index": 11, "label": 0}, {"index": 42, "label": 0.5}} {
		if code, out := rawJSON(t, h, "POST", "/api/sessions/"+current.ID+"/feedback", fb); code != http.StatusOK {
			t.Fatalf("feedback %d = %d: %s", i, code, out)
		}
	}
	routes := []string{"/top", "/weights"}
	before := make(map[string]string)
	for _, route := range routes {
		_, before[route] = rawJSON(t, h, "GET", "/api/sessions/"+current.ID+route, nil)
	}

	// Restart: a new server over the same WAL replays the append.
	recs, err := store.ReadJournal(journal.Path())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := liveServer(t, Options{}, walPath)
	restored, err := srv2.RestoreSessions(recs)
	if err == nil || !strings.Contains(err.Error(), stale.ID) {
		t.Fatalf("restore error %v does not report the stale session", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want only the current-version one", restored)
	}
	h2 := srv2.Handler()
	if code, _ := rawJSON(t, h2, "GET", "/api/sessions/"+stale.ID+"/top", nil); code != http.StatusNotFound {
		t.Fatalf("stale session answered %d, want 404", code)
	}
	for _, route := range routes {
		code, out := rawJSON(t, h2, "GET", "/api/sessions/"+current.ID+route, nil)
		if code != http.StatusOK {
			t.Fatalf("current-version session answered %s with %d: %s", route, code, out)
		}
		if out != before[route] {
			t.Fatalf("%s after restore:\n got %s\nwant %s", route, out, before[route])
		}
	}
}

// FuzzDecodeRows drives the append endpoint's body decoding — JSON into
// appendRequest, then decodeRows against a schema holding every column
// kind — with arbitrary bytes. It must never panic, and every batch it
// accepts must append cleanly to a table of that schema
// (Table.WithAppended), so no accepted body can fail later in the live
// table.
func FuzzDecodeRows(f *testing.F) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "i", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "f", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "s", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "b", Kind: dataset.KindBool},
	)
	table := dataset.NewTable("fuzz", schema)
	f.Add([]byte(`{"rows":[[1,2.5,"a",true],[null,null,null,null],[-9007199254740991,1e308,"",false]]}`))
	f.Add([]byte(`{"rows":[[1.5,2,"a",true]]}`))
	f.Add([]byte(`{"rows":[[1,2,3]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req appendRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		rows, err := decodeRows(table.Schema, req.Rows)
		if err != nil {
			return
		}
		if _, err := table.WithAppended(rows); err != nil {
			t.Fatalf("accepted batch %v does not append: %v", req.Rows, err)
		}
	})
}

// TestHealthzLiveKeys pins the keys of a live table's /healthz entry and
// their order: the entry embeds live.Status between the table name and
// the maintainer fields, and the serve smoke in CI and the benchmark
// harness both parse this JSON.
func TestHealthzLiveKeys(t *testing.T) {
	ts, _ := liveTestServer(t)
	var health struct {
		Live []json.RawMessage `json:"live"`
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if len(health.Live) != 1 {
		t.Fatalf("healthz live = %s", health.Live)
	}
	dec := json.NewDecoder(bytes.NewReader(health.Live[0]))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	want := "table,seq,rows,walBytes,checkpointSeq,checkpointAgeSeconds,maintained,maintainerLag"
	if got := strings.Join(keys, ","); got != want {
		t.Fatalf("healthz live keys = %s, want %s", got, want)
	}
}
