package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/store"
)

func diabTable() *dataset.Table {
	return dataset.GenerateDIAB(dataset.DIABConfig{Rows: 2000, Seed: 51})
}

func TestSessionIDsAreRandomHex(t *testing.T) {
	ts := testServer(t)
	idPattern := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		var info sessionInfo
		doJSON(t, "POST", ts.URL+"/api/sessions",
			map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3},
			http.StatusCreated, &info)
		if !idPattern.MatchString(info.ID) {
			t.Fatalf("session id %q is not 16 hex chars", info.ID)
		}
		if seen[info.ID] {
			t.Fatalf("duplicate session id %q", info.ID)
		}
		seen[info.ID] = true
	}
}

func TestSecondSessionIsServedFromCache(t *testing.T) {
	ts := testServer(t)
	body := map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}
	var first, second sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions", body, http.StatusCreated, &first)
	if first.Cached {
		t.Fatal("first session reported cached=true")
	}
	doJSON(t, "POST", ts.URL+"/api/sessions", body, http.StatusCreated, &second)
	if !second.Cached {
		t.Fatal("second identical session reported cached=false")
	}
}

func TestOversizedBodyGets413(t *testing.T) {
	ts := httptest.NewServer(New(diabTable()).Handler())
	defer ts.Close()
	big := bytes.Repeat([]byte("x"), maxBodyBytes)
	body := []byte(`{"table":"diab","query":"` + string(big) + `"}`)
	res, err := http.Post(ts.URL+"/api/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST = %d, want 413", res.StatusCode)
	}
	// A within-limit body on the same server still works.
	var info sessionInfo
	doJSON(t, "POST", ts.URL+"/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3},
		http.StatusCreated, &info)
}

// TestJournalRestoreReconstructsSession is the acceptance scenario: a
// server is killed mid-session (simulated by just abandoning it) and a new
// process replays the journal — the restored session must answer with the
// identical top-k and weights, and keep accepting feedback.
func TestJournalRestoreReconstructsSession(t *testing.T) {
	dir := t.TempDir()
	table := diabTable()
	journalPath := filepath.Join(dir, "journal.jsonl")
	journal, err := store.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := store.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewWithOptions(Options{Cache: cache, Journal: journal}, table)
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()

	var info sessionInfo
	doJSON(t, "POST", ts1.URL+"/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 5, "seed": 7},
		http.StatusCreated, &info)
	// Drive a few deterministic labels through the live server.
	for i := 0; i < 6; i++ {
		var next struct {
			Done  bool `json:"done"`
			Index int  `json:"index"`
		}
		doJSON(t, "GET", ts1.URL+"/api/sessions/"+info.ID+"/next", nil, http.StatusOK, &next)
		if next.Done {
			break
		}
		label := 0.0
		if next.Index%2 == 0 {
			label = 1.0
		}
		doJSON(t, "POST", ts1.URL+"/api/sessions/"+info.ID+"/feedback",
			map[string]any{"index": next.Index, "label": label}, http.StatusOK, nil)
	}
	var topBefore topResponse
	doJSON(t, "GET", ts1.URL+"/api/sessions/"+info.ID+"/top", nil, http.StatusOK, &topBefore)
	var weightsBefore map[string]any
	doJSON(t, "GET", ts1.URL+"/api/sessions/"+info.ID+"/weights", nil, http.StatusOK, &weightsBefore)

	// "Kill" the server without any clean shutdown: the journal's appends
	// are already on disk, so a new process sees them.
	recs, err := store.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	cache2, err := store.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewWithOptions(Options{Cache: cache2}, table)
	restored, err := srv2.RestoreSessions(recs)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var infoAfter sessionInfo
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+info.ID, nil, http.StatusOK, &infoAfter)
	if infoAfter.NumLabels != 6 {
		t.Fatalf("restored session has %d labels, want 6", infoAfter.NumLabels)
	}
	if !infoAfter.Cached {
		t.Error("restored session did not reuse the disk-backed offline cache")
	}
	var topAfter topResponse
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+info.ID+"/top", nil, http.StatusOK, &topAfter)
	if len(topAfter.Top) != len(topBefore.Top) {
		t.Fatalf("top-k sizes %d vs %d", len(topAfter.Top), len(topBefore.Top))
	}
	for i := range topBefore.Top {
		if topBefore.Top[i].Index != topAfter.Top[i].Index || topBefore.Top[i].Score != topAfter.Top[i].Score {
			t.Fatalf("top-k[%d] differs after restore: %+v vs %+v", i, topBefore.Top[i], topAfter.Top[i])
		}
	}
	var weightsAfter map[string]any
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+info.ID+"/weights", nil, http.StatusOK, &weightsAfter)
	beforeW := weightsBefore["weights"].(map[string]any)
	afterW := weightsAfter["weights"].(map[string]any)
	for name, v := range beforeW {
		if afterW[name] != v {
			t.Fatalf("weight %s differs after restore: %v vs %v", name, v, afterW[name])
		}
	}
	// The restored session stays interactive.
	var next struct {
		Done  bool `json:"done"`
		Index int  `json:"index"`
	}
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+info.ID+"/next", nil, http.StatusOK, &next)
	if !next.Done {
		doJSON(t, "POST", ts2.URL+"/api/sessions/"+info.ID+"/feedback",
			map[string]any{"index": next.Index, "label": 1.0}, http.StatusOK, nil)
	}
}

func TestRestoreSkipsDeletedSessions(t *testing.T) {
	dir := t.TempDir()
	table := diabTable()
	journal, err := store.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewWithOptions(Options{Journal: journal}, table)
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()
	body := map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}
	var kept, dropped sessionInfo
	doJSON(t, "POST", ts1.URL+"/api/sessions", body, http.StatusCreated, &kept)
	doJSON(t, "POST", ts1.URL+"/api/sessions", body, http.StatusCreated, &dropped)
	doJSON(t, "DELETE", ts1.URL+"/api/sessions/"+dropped.ID, nil, http.StatusNoContent, nil)

	recs, err := store.ReadJournal(journal.Path())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(table)
	restored, err := srv2.RestoreSessions(recs)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+kept.ID, nil, http.StatusOK, nil)
	doJSON(t, "GET", ts2.URL+"/api/sessions/"+dropped.ID, nil, http.StatusNotFound, nil)
}

func TestRestoreSurvivesUnknownTable(t *testing.T) {
	recs := []store.Record{
		{Op: store.OpCreate, Session: "aaaa", Table: "missing", Query: "SELECT * FROM missing"},
		{Op: store.OpCreate, Session: "bbbb", Table: "diab", Query: dataset.DIABQuery, K: 3},
	}
	srv := New(diabTable())
	restored, err := srv.RestoreSessions(recs)
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	if err == nil {
		t.Fatal("missing-table session restored without error")
	}
}
