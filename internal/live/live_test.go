package live

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/retry"
	"viewseeker/internal/store"
)

func baseTable(t testing.TB, rows int) *dataset.Table {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	tab := dataset.NewTable("t", schema)
	for i := 0; i < rows; i++ {
		tab.MustAppendRow(dataset.StringVal(string(rune('a'+i%3))), dataset.Float(float64(i)))
	}
	return tab
}

func batch(base, n int) [][]dataset.Value {
	out := make([][]dataset.Value, n)
	for i := range out {
		out[i] = []dataset.Value{dataset.StringVal("b"), dataset.Float(float64(base + i))}
	}
	return out
}

func tableRows(tab *dataset.Table) [][]dataset.Value {
	out := make([][]dataset.Value, tab.NumRows())
	for i := range out {
		out[i] = tab.Row(i)
	}
	return out
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	base := baseTable(t, 10)
	lt, rec, err := Open(nil, path, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 0 || lt.Current() != base {
		t.Fatal("fresh live table is not the base")
	}
	if _, err := lt.Append(batch(100, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append(batch(200, 3)); err != nil {
		t.Fatal(err)
	}
	want := tableRows(lt.Current())
	if lt.Seq() != 2 || len(want) != 17 {
		t.Fatalf("seq %d rows %d, want 2 and 17", lt.Seq(), len(want))
	}
	lt.Close()

	// Reopen against the same base: replay lands on the same version.
	lt2, rec2, err := Open(nil, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	if rec2.LastSeq != 2 || rec2.TornTail {
		t.Fatalf("recovery: seq %d torn %v", rec2.LastSeq, rec2.TornTail)
	}
	if got := tableRows(lt2.Current()); !reflect.DeepEqual(got, want) {
		t.Fatal("replayed table differs from the pre-restart version")
	}
}

// TestFaultKillDuringAppend is the crash-recovery acceptance test: an
// append that tears mid-record (retries exhausted, truncate also failing —
// the worst case, leaving the torn frame on disk) must not become visible
// after reopen; the table restores to the last committed batch with no
// partial rows.
func TestFaultKillDuringAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	faulty := faultfs.NewFaulty(nil)
	fs := &stuckTruncateFS{FS: faulty}
	lt, _, err := Open(fs, path, baseTable(t, 10), Options{Retry: retry.Policy{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append(batch(100, 5)); err != nil {
		t.Fatal(err)
	}
	committed := tableRows(lt.Current())

	faulty.TearWritesAfter(7, errors.New("injected crash"))
	if seq, err := lt.Append(batch(200, 5)); err == nil || seq != 0 {
		t.Fatalf("torn append: seq %d err %v, want 0 and error", seq, err)
	}
	// The failed append must not be visible in memory either.
	if got := tableRows(lt.Current()); !reflect.DeepEqual(got, committed) {
		t.Fatal("torn append leaked into the published version")
	}
	faulty.Clear()
	lt.Close()

	lt2, rec, err := Open(faulty, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	if !rec.TornTail {
		t.Fatal("recovery did not report the torn tail")
	}
	if rec.LastSeq != 1 {
		t.Fatalf("recovered to seq %d, want 1", rec.LastSeq)
	}
	if got := tableRows(lt2.Current()); !reflect.DeepEqual(got, committed) {
		t.Fatal("recovered table differs from the last committed batch")
	}
	// The table accepts appends again after recovery.
	if seq, err := lt2.Append(batch(300, 2)); err != nil || seq != 2 {
		t.Fatalf("post-recovery append: seq %d err %v", seq, err)
	}
}

// stuckTruncateFS fails torn-tail repair, so a torn frame stays on disk —
// simulating a crash between the tear and the cleanup.
type stuckTruncateFS struct{ faultfs.FS }

func (f *stuckTruncateFS) Truncate(string, int64) error {
	return errors.New("injected truncate failure")
}

// TestCheckpointRoundtrip: Checkpoint persists the current version,
// compacts the log to zero, and a reopen replays only the suffix — the
// bounded-recovery contract — landing bit-identically on the same version
// ref.
func TestCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	base := baseTable(t, 10)
	lt, _, err := Open(nil, path, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := lt.Append(batch(i*100, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if st := lt.Status(); st.WalBytes == 0 || st.CheckpointSeq != 0 || st.CheckpointAgeSeconds != -1 {
		t.Fatalf("pre-checkpoint status: %+v", st)
	}
	seq, err := lt.Checkpoint()
	if err != nil || seq != 3 {
		t.Fatalf("checkpoint: seq %d err %v, want 3 and nil", seq, err)
	}
	if st := lt.Status(); st.WalBytes != 0 || st.CheckpointSeq != 3 || st.CheckpointAgeSeconds < 0 {
		t.Fatalf("post-checkpoint status: %+v", st)
	}
	// Nothing new to cover: a second checkpoint is a no-op.
	if seq, err := lt.Checkpoint(); err != nil || seq != 0 {
		t.Fatalf("idle checkpoint: seq %d err %v, want 0 and nil", seq, err)
	}
	if _, err := lt.Append(batch(900, 2)); err != nil {
		t.Fatal(err)
	}
	want := tableRows(lt.Current())
	wantRef := lt.VersionRef()
	lt.Close()

	lt2, rec, err := Open(nil, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	// Bounded replay: only the one post-checkpoint batch, nothing skipped
	// (the log was compacted).
	if len(rec.Batches) != 1 || rec.SkippedFrames != 0 || rec.LastSeq != 4 {
		t.Fatalf("recovery: %d batches, %d skipped, seq %d; want 1, 0, 4",
			len(rec.Batches), rec.SkippedFrames, rec.LastSeq)
	}
	if got := tableRows(lt2.Current()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered table differs from the pre-restart version")
	}
	if ref := lt2.VersionRef(); ref != wantRef {
		t.Fatalf("version ref changed across checkpointed restart: %q != %q", ref, wantRef)
	}
	if st := lt2.Status(); st.CheckpointSeq != 3 {
		t.Fatalf("checkpoint seq not restored: %+v", st)
	}
	// Appends keep working on the compacted log.
	if seq, err := lt2.Append(batch(950, 1)); err != nil || seq != 5 {
		t.Fatalf("post-recovery append: seq %d err %v", seq, err)
	}
}

// ckptRenameFailFS fails the snapshot publish rename — the disk state of a
// crash just before it: no (new) snapshot, full log intact.
type ckptRenameFailFS struct{ faultfs.FS }

func (f *ckptRenameFailFS) Rename(oldpath, newpath string) error {
	if strings.HasSuffix(newpath, ".ckpt") {
		return errors.New("injected crash before checkpoint rename")
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestCheckpointCrashBeforeRename is crash window 1: dying before the
// snapshot rename leaves the old state (here: no snapshot) plus the full
// log, and recovery replays as if the checkpoint never started.
func TestCheckpointCrashBeforeRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	fs := &ckptRenameFailFS{FS: faultfs.OS{}}
	lt, _, err := Open(fs, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := lt.Append(batch(i*100, 3)); err != nil {
			t.Fatal(err)
		}
	}
	want := tableRows(lt.Current())
	if seq, err := lt.Checkpoint(); err == nil || seq != 0 {
		t.Fatalf("crashed checkpoint: seq %d err %v, want 0 and error", seq, err)
	}
	// The failed attempt changed nothing: no snapshot, log uncompacted.
	if st := lt.Status(); st.CheckpointSeq != 0 || st.WalBytes == 0 {
		t.Fatalf("status after failed checkpoint: %+v", st)
	}
	lt.Close()

	lt2, rec, err := Open(nil, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	if rec.LastSeq != 2 || rec.SkippedFrames != 0 || len(rec.Batches) != 2 {
		t.Fatalf("recovery: %d batches, %d skipped, seq %d; want 2, 0, 2",
			len(rec.Batches), rec.SkippedFrames, rec.LastSeq)
	}
	if got := tableRows(lt2.Current()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered table differs from the last committed version")
	}
}

// TestCheckpointCrashBeforeTruncate is crash window 2: the snapshot rename
// landed but the log compaction did not (stuckTruncateFS blocks it), so
// the log still holds the frames the snapshot already covers. Recovery
// loads the snapshot and skips the duplicate prefix by seq.
func TestCheckpointCrashBeforeTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	fs := &stuckTruncateFS{FS: faultfs.OS{}}
	lt, _, err := Open(fs, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := lt.Append(batch(i*100, 3)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := lt.Checkpoint()
	if err == nil || seq != 3 {
		t.Fatalf("checkpoint with stuck compaction: seq %d err %v, want 3 and error", seq, err)
	}
	// The snapshot is durable even though the log kept its covered prefix.
	if st := lt.Status(); st.CheckpointSeq != 3 || st.WalBytes == 0 {
		t.Fatalf("status after stuck compaction: %+v", st)
	}
	if _, err := lt.Append(batch(900, 2)); err != nil {
		t.Fatal(err)
	}
	want := tableRows(lt.Current())
	wantRef := lt.VersionRef()
	lt.Close()

	lt2, rec, err := Open(nil, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	// Frames 1..3 are duplicates of the snapshot: validated, skipped, never
	// re-applied. Only batch 4 replays.
	if rec.SkippedFrames != 3 || len(rec.Batches) != 1 || rec.LastSeq != 4 {
		t.Fatalf("recovery: %d batches, %d skipped, seq %d; want 1, 3, 4",
			len(rec.Batches), rec.SkippedFrames, rec.LastSeq)
	}
	if got := tableRows(lt2.Current()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered table differs from the last committed version")
	}
	if ref := lt2.VersionRef(); ref != wantRef {
		t.Fatalf("version ref changed: %q != %q", ref, wantRef)
	}
}

// TestAutoCheckpoint: with CheckpointBytes set low every append crosses
// the threshold, so a background checkpoint runs and Close waits for it;
// the reopened table replays only a bounded suffix.
func TestAutoCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	lt, _, err := Open(nil, path, baseTable(t, 10), Options{CheckpointBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := lt.Append(batch(i*100, 2)); err != nil {
			t.Fatal(err)
		}
	}
	want := tableRows(lt.Current())
	lt.Close() // waits for any in-flight background checkpoint
	if st := lt.Status(); st.CheckpointSeq == 0 {
		t.Fatalf("auto-checkpoint never ran: %+v", st)
	}

	lt2, rec, err := Open(nil, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	if rec.LastSeq != 5 || len(rec.Batches) >= 5 {
		t.Fatalf("recovery: %d batches, seq %d; want bounded replay to seq 5",
			len(rec.Batches), rec.LastSeq)
	}
	if got := tableRows(lt2.Current()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered table differs from the pre-restart version")
	}
}

// TestCheckpointHardErrors: a snapshot that exists but does not decode, or
// was taken against a different base, must fail Open outright — the log
// may be compacted, so falling back to base replay could silently lose
// rows.
func TestCheckpointHardErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	lt, _, err := Open(nil, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append(batch(0, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lt.Close()

	// Wrong base: the snapshot records the original base hash.
	if _, _, err := Open(nil, path, baseTable(t, 11), Options{}); err == nil {
		t.Fatal("open with a different base accepted a foreign checkpoint")
	}
	// Corrupt snapshot: hard error, no silent fallback.
	if err := os.WriteFile(CheckpointPath(path), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(nil, path, baseTable(t, 10), Options{}); err == nil {
		t.Fatal("open decoded a corrupt checkpoint")
	}
}

// TestConcurrentReadersDuringAppend holds reader goroutines on pinned
// versions while appends publish new ones; run under -race this pins the
// MVCC claim that published versions are immutable.
func TestConcurrentReadersDuringAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	lt, _, err := Open(nil, path, baseTable(t, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tab := lt.Current()
				n := tab.NumRows()
				sum := 0.0
				col := tab.Column("m")
				for r := 0; r < n; r++ {
					if v, ok := col.Float(r); ok {
						sum += v
					}
				}
				if n2 := tab.NumRows(); n2 != n {
					t.Error("pinned version changed row count")
					return
				}
				_ = sum
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := lt.Append(batch(i*10, 5)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if lt.Current().NumRows() != 150 {
		t.Fatalf("rows %d, want 150", lt.Current().NumRows())
	}
}

func TestVersionRefMonotone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	base := baseTable(t, 10)
	baseHash := store.HashTable(base)
	lt, _, err := Open(nil, path, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	if ref := lt.VersionRef(); ref != baseHash {
		t.Fatalf("seq-0 ref %q should equal the base hash %q", ref, baseHash)
	}
	if _, err := lt.Append(batch(0, 2)); err != nil {
		t.Fatal(err)
	}
	if ref := lt.VersionRef(); ref != store.VersionedRef(baseHash, 1) {
		t.Fatalf("ref after one append: %q", ref)
	}
	// The ref identifies contents: a full content hash of the appended
	// version differs from the base hash, but the version ref never pays
	// for computing it.
	if store.HashTable(lt.Current()) == baseHash {
		t.Fatal("append did not change contents")
	}
}

// FuzzReadCheckpoint: readCheckpoint never panics on an arbitrary file,
// and a file it accepts yields a whole table — every column as long as
// the table, every row readable — that survives a binary round trip.
func FuzzReadCheckpoint(f *testing.F) {
	path := filepath.Join(f.TempDir(), "t.wal")
	lt, _, err := Open(nil, path, baseTable(f, 10), Options{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := lt.Append(batch(100, 4)); err != nil {
		f.Fatal(err)
	}
	if _, err := lt.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	lt.Close()
	seed, err := os.ReadFile(CheckpointPath(path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "t.wal.ckpt")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, tab, err := readCheckpoint(faultfs.OS{}, p)
		if err != nil {
			return
		}
		if ck == nil || tab == nil {
			t.Fatal("an existing file read as no checkpoint")
		}
		for _, c := range tab.Cols {
			if c.Len() != tab.NumRows() {
				t.Fatalf("column %q has %d rows, table %d", c.Def.Name, c.Len(), tab.NumRows())
			}
		}
		for i := 0; i < tab.NumRows(); i++ {
			tab.Row(i)
		}
		var buf bytes.Buffer
		if err := dataset.WriteBinary(tab, &buf); err != nil {
			t.Fatal(err)
		}
		if _, err := dataset.ReadBinary(&buf); err != nil {
			t.Fatalf("accepted checkpoint table does not round-trip: %v", err)
		}
	})
}
