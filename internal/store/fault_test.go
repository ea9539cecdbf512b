package store

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"viewseeker/internal/faultfs"
	"viewseeker/internal/retry"
	"viewseeker/internal/view"
)

var errNoSpace = syscall.ENOSPC

// recordingPolicy returns a fast deterministic schedule whose sleeps are
// captured instead of waited out.
func recordingPolicy(slept *[]time.Duration) retry.Policy {
	return retry.Policy{
		Attempts: 3, Base: 10 * time.Millisecond, Max: 40 * time.Millisecond,
		Sleep: func(d time.Duration) { *slept = append(*slept, d) },
	}
}

func faultResult() *OfflineResult {
	return &OfflineResult{
		Specs: []view.Spec{{Dimension: "d", Measure: "m", Agg: "COUNT", Bins: 4}},
		Names: []string{"KL"},
		Rows:  [][]float64{{0.25}},
		Exact: []bool{true},
	}
}

func TestJournalFaultENOSPCDegradesAndRecovers(t *testing.T) {
	fs := faultfs.NewFaulty(nil)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var slept []time.Duration
	j.SetRetryPolicy(recordingPolicy(&slept))

	if err := j.Append(Record{Op: OpCreate, Session: "a", Table: "t", Query: "q"}); err != nil {
		t.Fatal(err)
	}
	if j.Degraded() {
		t.Fatal("healthy journal reports degraded")
	}

	fs.FailWrites(errNoSpace)
	err = j.Append(Record{Op: OpFeedback, Session: "a", View: 1, Label: 1})
	if !errors.Is(err, errNoSpace) {
		t.Fatalf("append under ENOSPC: err = %v, want ENOSPC", err)
	}
	if !j.Degraded() {
		t.Error("exhausted retries did not mark the journal degraded")
	}
	// Retry timing is deterministic under the injected sleeper: 3 attempts,
	// backoffs 10ms then 20ms, no jitter configured.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("backoff schedule = %v, want %v", slept, want)
	}

	// Lifting the fault: the next append succeeds and clears the flag.
	fs.Clear()
	if err := j.Append(Record{Op: OpFeedback, Session: "a", View: 2, Label: 0}); err != nil {
		t.Fatal(err)
	}
	if j.Degraded() {
		t.Error("successful append did not clear the degraded flag")
	}

	recs, err := ReadJournalFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	// The ENOSPC'd record is lost (it never reached disk); the records
	// around it survive.
	if len(recs) != 2 || recs[0].Op != OpCreate || recs[1].View != 2 {
		t.Fatalf("replay = %+v, want create + view-2 feedback", recs)
	}
}

func TestJournalFaultTransientErrorIsRetriedAway(t *testing.T) {
	fs := faultfs.NewFaulty(nil)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var slept []time.Duration
	j.SetRetryPolicy(recordingPolicy(&slept))

	// Two transient failures fit inside the 3-attempt budget: the append
	// succeeds overall and the journal never degrades.
	fs.FailNextWrites(2, errNoSpace)
	if err := j.Append(Record{Op: OpCreate, Session: "a", Table: "t", Query: "q"}); err != nil {
		t.Fatalf("append with transient fault: %v", err)
	}
	if j.Degraded() {
		t.Error("recovered append left the journal degraded")
	}
	if len(slept) != 2 {
		t.Errorf("slept %v, want 2 backoffs", slept)
	}
	recs, err := ReadJournalFS(fs, path)
	if err != nil || len(recs) != 1 {
		t.Fatalf("replay = %+v, %v", recs, err)
	}
}

func TestJournalFaultTornWriteDoesNotCorruptNeighbours(t *testing.T) {
	fs := faultfs.NewFaulty(nil)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetRetryPolicy(retry.Policy{Attempts: 1}) // no retries: observe one torn write per append

	if err := j.Append(Record{Op: OpCreate, Session: "a", Table: "t", Query: "q"}); err != nil {
		t.Fatal(err)
	}
	// A torn write persists a JSON prefix and fails.
	fs.TearWritesAfter(7, errNoSpace)
	if err := j.Append(Record{Op: OpFeedback, Session: "a", View: 1, Label: 1}); !errors.Is(err, errNoSpace) {
		t.Fatalf("torn append err = %v", err)
	}
	if !j.Degraded() {
		t.Error("torn append did not degrade the journal")
	}
	// The failed append already truncated its partial frame away.
	if st, err := os.Stat(path); err != nil || st.Size() != frameLen(t, path) {
		t.Fatalf("torn frame left on disk: %v", err)
	}
	fs.Clear()
	if err := j.Append(Record{Op: OpFeedback, Session: "a", View: 2, Label: 0}); err != nil {
		t.Fatal(err)
	}
	if j.Degraded() {
		t.Error("successful append did not clear the degraded flag")
	}
	recs, err := ReadJournalFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Op != OpCreate || recs[1].Op != OpFeedback || recs[1].View != 2 {
		t.Fatalf("replay = %+v, want create + view-2 feedback (torn record dropped)", recs)
	}
}

// frameLen is the on-disk size of the journal at path's first frame.
func frameLen(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil || len(raw) < 4 {
		t.Fatalf("reading %s: %v", path, err)
	}
	return 8 + int64(binary.LittleEndian.Uint32(raw[0:4]))
}

// failTruncateFS makes torn-write repair impossible, forcing the poison
// path.
type failTruncateFS struct{ faultfs.FS }

func (f *failTruncateFS) Truncate(string, int64) error {
	return errors.New("injected truncate failure")
}

// TestJournalFaultPoisonedAfterFailedTruncate: a torn append whose repair
// truncate fails poisons the journal. Every later append fails and the
// journal stays Degraded, because a record written past the tear would be
// lost to recovery; reopening on a healthy filesystem repairs the tail.
func TestJournalFaultPoisonedAfterFailedTruncate(t *testing.T) {
	faulty := faultfs.NewFaulty(nil)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalFS(&failTruncateFS{FS: faulty}, path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetRetryPolicy(retry.Policy{Attempts: 1})
	if err := j.Append(Record{Op: OpCreate, Session: "a", Table: "t", Query: "q"}); err != nil {
		t.Fatal(err)
	}
	faulty.TearWritesAfter(3, errNoSpace)
	if err := j.Append(Record{Op: OpFeedback, Session: "a", View: 1, Label: 1}); err == nil {
		t.Fatal("torn, untruncatable append reported success")
	}
	faulty.Clear()
	if err := j.Append(Record{Op: OpFeedback, Session: "a", View: 2, Label: 0}); err == nil {
		t.Fatal("poisoned journal accepted an append")
	}
	if !j.Degraded() {
		t.Fatal("poisoned journal does not report degraded")
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec := j2.Recovery(); !rec.TornTail || rec.TornBytes != 3 {
		t.Fatalf("recovery after poison = %+v, want 3 torn bytes", rec)
	}
	if err := j2.Append(Record{Op: OpFeedback, Session: "a", View: 3, Label: 1}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	recs, err := ReadJournal(path)
	if err != nil || len(recs) != 2 || recs[1].View != 3 {
		t.Fatalf("replay after repair = %+v, %v", recs, err)
	}
}

func TestCacheFaultSnapshotENOSPCDegradesToMemoryOnly(t *testing.T) {
	fs := faultfs.NewFaulty(nil)
	dir := t.TempDir()
	c, err := OpenFS(fs, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	c.SetRetryPolicy(recordingPolicy(&slept))

	fs.FailWrites(errNoSpace)
	res := faultResult()
	if err := c.Put("fp1", res); !errors.Is(err, errNoSpace) {
		t.Fatalf("put under ENOSPC: err = %v, want wrapped ENOSPC", err)
	}
	if !c.Degraded() {
		t.Error("exhausted snapshot retries did not mark the cache degraded")
	}
	if len(slept) != 2 {
		t.Errorf("backoff schedule = %v, want 2 sleeps", slept)
	}
	// The memory entry survives: sessions keep hitting the cache.
	if got, ok := c.Get("fp1"); !ok || len(got.Rows) != 1 {
		t.Fatal("memory entry lost after failed snapshot write")
	}

	// Lifting the fault: the next Put snapshots and clears the flag.
	fs.Clear()
	if err := c.Put("fp2", faultResult()); err != nil {
		t.Fatal(err)
	}
	if c.Degraded() {
		t.Error("successful snapshot did not clear the degraded flag")
	}
	if _, err := os.Stat(filepath.Join(dir, "fp2.vscache")); err != nil {
		t.Errorf("snapshot missing after recovery: %v", err)
	}
}

func TestCacheFaultCorruptSnapshotQuarantined(t *testing.T) {
	fs := faultfs.NewFaulty(nil)
	dir := t.TempDir()
	c, err := OpenFS(fs, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("fp1", faultResult()); err != nil {
		t.Fatal(err)
	}
	// Corrupt the snapshot on disk and drop the memory entry by opening a
	// fresh cache over the same dir.
	path := filepath.Join(dir, "fp1.vscache")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenFS(fs, dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("fp1"); ok {
		t.Fatal("corrupt snapshot served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt snapshot not quarantined: %v", err)
	}
	if c2.Degraded() {
		t.Error("read-side quarantine must not mark the write path degraded")
	}
}

func TestCacheFaultRetryHonoursContext(t *testing.T) {
	// Direct policy check through the cache's write path is covered above;
	// this pins that a cancelled context stops snapshot retries early when
	// a caller wires one through retry.Policy.Do.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := (retry.Policy{Attempts: 5, Base: time.Millisecond, Sleep: func(time.Duration) {}}).
		Do(ctx, func() error { calls++; return errNoSpace })
	if calls != 1 || !errors.Is(err, errNoSpace) {
		t.Fatalf("calls = %d, err = %v", calls, err)
	}
}
