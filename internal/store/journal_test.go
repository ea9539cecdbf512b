package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJournalAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpCreate, Session: "abc", Table: "diab", Query: "SELECT * FROM diab", K: 5, Alpha: 0.5, Strategy: "random", Seed: 9, Workers: 2},
		{Op: OpFeedback, Session: "abc", View: 0, Label: 0},
		{Op: OpFeedback, Session: "abc", View: 17, Label: 0.75},
		{Op: OpDelete, Session: "abc"},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpDelete, Session: "x"}); err == nil {
		t.Error("append after close succeeded")
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, err := ReadJournal(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing journal: recs=%v err=%v", recs, err)
	}
}

func TestJournalTornTailIsTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpCreate, Session: "a", Table: "t", Query: "q"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpFeedback, Session: "a", View: 3, Label: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn final frame (a header plus the
	// first bytes of its payload).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw[:11]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want the 2 intact ones", len(recs))
	}
	// Reopening for append truncates the torn tail and reports it;
	// everything before it survives and appends continue after it.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec := j2.Recovery(); !rec.TornTail || rec.TornBytes != 11 || rec.CommittedBytes != int64(len(raw)) {
		t.Fatalf("recovery = %+v, want 11 torn bytes after %d committed", rec, len(raw))
	}
	if err := j2.Append(Record{Op: OpDelete, Session: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadJournal(path); err != nil || len(recs) != 3 || recs[2].Op != OpDelete {
		t.Fatalf("after reopen and append: %+v, %v", recs, err)
	}
}

// TestJournalMidFileCorruptionNotReplayed flips one byte inside a middle
// record so that its JSON still parses (label 0.5 becomes 0.7). The CRC
// must catch it: neither it nor any record after it is replayed, and
// OpenJournal reports every byte it dropped.
func TestJournalMidFileCorruptionNotReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Op: OpCreate, Session: "a", Table: "t", Query: "q"},
		{Op: OpFeedback, Session: "a", View: 1, Label: 1},
		{Op: OpFeedback, Session: "a", View: 2, Label: 0.5},
		{Op: OpFeedback, Session: "a", View: 3, Label: 0},
		{Op: OpFeedback, Session: "a", View: 4, Label: 1},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, []byte(`"label":0.5`))
	if at < 0 || bytes.Count(raw, []byte(`"label":0.5`)) != 1 {
		t.Fatal("label 0.5 not found exactly once")
	}
	raw[at+len(`"label":0.`)] = '7'
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var flipped Record
	if err := json.Unmarshal(raw[bytes.LastIndexByte(raw[:at], '{'):at+len(`"label":0.7}`)], &flipped); err != nil || flipped.Label != 0.7 {
		t.Fatalf("flipped record no longer parses as 0.7: %+v, %v", flipped, err)
	}

	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != recs[1] {
		t.Fatalf("read %+v, want only the 2 records before the corruption", got)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rec := j2.Recovery()
	if !rec.TornTail || rec.CommittedBytes+rec.TornBytes != int64(len(raw)) {
		t.Fatalf("recovery = %+v for a %d-byte file", rec, len(raw))
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != rec.CommittedBytes {
		t.Fatalf("journal not truncated to the %d committed bytes: %v", rec.CommittedBytes, err)
	}
}

// TestOpenJournalRefusesJSONL: a journal written in the JSON-lines format
// of older versions (testdata/journal-v0.jsonl) must be refused by name,
// never taken for a torn tail and truncated to nothing.
func TestOpenJournalRefusesJSONL(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "journal-v0.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err := OpenJournal(path); err == nil || !strings.Contains(err.Error(), path) {
		if j != nil {
			j.Close()
		}
		t.Fatalf("OpenJournal over a JSON-lines journal: %v", err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("ReadJournal read a JSON-lines journal as empty")
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Fatal("the JSON-lines journal was modified")
	}
}

// FuzzReadJournal: arbitrary journal bytes must never panic the reader or
// the recovering open. Whatever reads back must read back identically
// after OpenJournal's repair, and re-journalled it must read back equal.
func FuzzReadJournal(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed")
	j, err := OpenJournal(seed)
	if err != nil {
		f.Fatal(err)
	}
	j.Append(Record{Op: OpCreate, Session: "s", Table: "t", Query: "q", K: 3, Alpha: 0.5, Seed: 2})
	j.Append(Record{Op: OpFeedback, Session: "s", View: 4, Label: 0.25})
	j.Close()
	img, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "journal-v0.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-5])
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, rerr := ReadJournal(path)
		j, err := OpenJournal(path)
		if err != nil {
			return
		}
		j.Close()
		again, err := ReadJournal(path)
		if (rerr == nil) != (err == nil) || !reflect.DeepEqual(again, recs) {
			t.Fatalf("read before repair %+v (%v), after %+v (%v)", recs, rerr, again, err)
		}
		if rerr != nil {
			return
		}
		copyPath := filepath.Join(dir, "copy")
		jc, err := OpenJournal(copyPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := jc.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		jc.Close()
		if back, err := ReadJournal(copyPath); err != nil || !reflect.DeepEqual(back, recs) {
			t.Fatalf("re-journalled records read back as %+v, %v", back, err)
		}
	})
}

func TestReplayCollapsesLifecycle(t *testing.T) {
	recs := []Record{
		{Op: OpCreate, Session: "s1", Table: "t", Query: "q1"},
		{Op: OpFeedback, Session: "s1", View: 1, Label: 1},
		{Op: OpCreate, Session: "s2", Table: "t", Query: "q2"},
		{Op: OpFeedback, Session: "s2", View: 2, Label: 0},
		{Op: OpDelete, Session: "s1"},
		{Op: OpFeedback, Session: "s1", View: 9, Label: 1},    // after delete: dropped
		{Op: OpFeedback, Session: "ghost", View: 0, Label: 1}, // never created: dropped
		{Op: OpDelete, Session: "missing"},                    // no-op
		{Op: OpFeedback, Session: "s2", View: 5, Label: 0.25},
	}
	logs := Replay(recs)
	if len(logs) != 1 {
		t.Fatalf("live sessions = %d, want 1", len(logs))
	}
	lg := logs[0]
	if lg.Create.Session != "s2" || lg.Create.Query != "q2" {
		t.Fatalf("wrong create record: %+v", lg.Create)
	}
	if len(lg.Feedback) != 2 || lg.Feedback[0].View != 2 || lg.Feedback[1].View != 5 {
		t.Fatalf("feedback = %+v", lg.Feedback)
	}
}

func TestReplayRecreateReplacesSession(t *testing.T) {
	recs := []Record{
		{Op: OpCreate, Session: "s1", Table: "t", Query: "old"},
		{Op: OpFeedback, Session: "s1", View: 1, Label: 1},
		{Op: OpCreate, Session: "s1", Table: "t", Query: "new"},
		{Op: OpFeedback, Session: "s1", View: 2, Label: 0},
	}
	logs := Replay(recs)
	if len(logs) != 1 {
		t.Fatalf("live sessions = %d, want 1", len(logs))
	}
	if logs[0].Create.Query != "new" || len(logs[0].Feedback) != 1 || logs[0].Feedback[0].View != 2 {
		t.Fatalf("recreate did not replace: %+v", logs[0])
	}
}
