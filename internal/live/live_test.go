package live

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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
	"viewseeker/internal/wal"
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
	if rec.Replayed != 1 || rec.SkippedFrames != 0 || rec.LastSeq != 4 {
		t.Fatalf("recovery: %d batches, %d skipped, seq %d; want 1, 0, 4",
			rec.Replayed, rec.SkippedFrames, rec.LastSeq)
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

// segTearFS, once armed, persists only the first half of every payload
// write to the segment log and fails its repair, leaving the torn frame on
// disk: the disk state of a kill while a segment is written.
type segTearFS struct {
	faultfs.FS
	armed bool
}

func (f *segTearFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasSuffix(name, ".seg") {
		return file, err
	}
	return &segTearFile{File: file, fs: f}, nil
}

func (f *segTearFS) Truncate(name string, size int64) error {
	if f.armed && strings.HasSuffix(name, ".seg") {
		return errors.New("injected crash before the torn segment's repair")
	}
	return f.FS.Truncate(name, size)
}

type segTearFile struct {
	faultfs.File
	fs *segTearFS
}

// Write tears writes longer than a frame header, so the header lands and
// the payload tears.
func (f *segTearFile) Write(p []byte) (int, error) {
	if !f.fs.armed || len(p) <= 16 {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	return n, errors.New("injected crash mid-segment")
}

// requireSameTable fails unless got holds exactly want's rows, cell for
// cell, NULLs and the numeric views included.
func requireSameTable(t *testing.T, got, want *dataset.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("recovered %d rows, want %d", got.NumRows(), want.NumRows())
	}
	if !reflect.DeepEqual(tableRows(got), tableRows(want)) || versionChecksum(got) != versionChecksum(want) {
		t.Fatal("recovered table differs from the pre-crash version")
	}
}

// TestCheckpointCrashSegmentTorn is the segment log's first crash window
// (it replaces the whole-table snapshot's crash before its rename): a kill
// while a segment is written leaves a torn frame at the end of the segment
// log and the WAL, synced before the segment and not yet compacted,
// holding its batches. Recovery drops the torn segment and replays those
// batches from the WAL over the intact segments.
func TestCheckpointCrashSegmentTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	fs := &segTearFS{FS: faultfs.OS{}}
	lt, _, err := Open(fs, path, migrationBase(), Options{Retry: retry.Policy{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append(migrationRows(0)); err != nil {
		t.Fatal(err)
	}
	if seq, err := lt.Checkpoint(); err != nil || seq != 1 {
		t.Fatalf("first checkpoint: seq %d err %v", seq, err)
	}
	for i := 1; i < 3; i++ {
		if _, err := lt.Append(migrationRows(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.armed = true
	if seq, err := lt.Checkpoint(); err == nil || seq != 0 {
		t.Fatalf("torn checkpoint: seq %d err %v, want 0 and error", seq, err)
	}
	// The failed attempt moved nothing: the first segment still covers
	// seq 1 and the log kept the two batches past it.
	if st := lt.Status(); st.CheckpointSeq != 1 || st.WalBytes == 0 {
		t.Fatalf("status after torn checkpoint: %+v", st)
	}
	want := lt.Current()
	lt.Close()

	lt2, rec, err := Open(nil, path, migrationBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	if rec.Segments != 1 || rec.Replayed != 2 || rec.SkippedFrames != 0 || rec.LastSeq != 3 {
		t.Fatalf("recovery: %d segments, %d batches, %d skipped, seq %d; want 1, 2, 0, 3",
			rec.Segments, rec.Replayed, rec.SkippedFrames, rec.LastSeq)
	}
	requireSameTable(t, lt2.Current(), want)
	// The torn tail was repaired: the next segment lands after the first.
	if seq, err := lt2.Checkpoint(); err != nil || seq != 3 {
		t.Fatalf("checkpoint after recovery: seq %d err %v", seq, err)
	}
	lt2.Close()
	lt3, rec, err := Open(nil, path, migrationBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt3.Close()
	if rec.Segments != 2 || rec.Replayed != 0 {
		t.Fatalf("second recovery: %d segments, %d batches", rec.Segments, rec.Replayed)
	}
	requireSameTable(t, lt3.Current(), want)
}

// TestCheckpointCrashBeforeTruncate is the segment log's second crash
// window: the segment is synced but the log compaction did not happen
// (stuckTruncateFS blocks it), so the WAL still holds the frames the
// segment covers. Recovery applies the segment and skips the duplicate
// prefix by seq.
func TestCheckpointCrashBeforeTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	fs := &stuckTruncateFS{FS: faultfs.OS{}}
	lt, _, err := Open(fs, path, migrationBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := lt.Append(migrationRows(i)); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := lt.Checkpoint()
	if err == nil || seq != 3 {
		t.Fatalf("checkpoint with stuck compaction: seq %d err %v, want 3 and error", seq, err)
	}
	// The segment is durable even though the log kept its covered prefix.
	if st := lt.Status(); st.CheckpointSeq != 3 || st.WalBytes == 0 {
		t.Fatalf("status after stuck compaction: %+v", st)
	}
	if _, err := lt.Append(migrationRows(3)); err != nil {
		t.Fatal(err)
	}
	want := lt.Current()
	wantRef := lt.VersionRef()
	lt.Close()

	lt2, rec, err := Open(nil, path, migrationBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	// Frames 1..3 are duplicates of the segment: validated, skipped, never
	// re-applied. Only batch 4 replays.
	if rec.Segments != 1 || rec.SkippedFrames != 3 || rec.Replayed != 1 || rec.LastSeq != 4 {
		t.Fatalf("recovery: %d segments, %d batches, %d skipped, seq %d; want 1, 1, 3, 4",
			rec.Segments, rec.Replayed, rec.SkippedFrames, rec.LastSeq)
	}
	requireSameTable(t, lt2.Current(), want)
	if ref := lt2.VersionRef(); ref != wantRef {
		t.Fatalf("version ref changed: %q != %q", ref, wantRef)
	}
}

// TestCheckpointCrashAfterCompaction is the segment log's third crash
// window: killed after checkpoints compacted the WAL, the table is its
// segments plus the batches appended since, and recovery reads each
// appended row once.
func TestCheckpointCrashAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	lt, _, err := Open(nil, path, migrationBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lt.Close() })
	for i := 0; i < 7; i++ {
		if _, err := lt.Append(migrationRows(i)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if _, err := lt.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No Close: the process dies with both logs open.
	want := lt.Current()
	lt2, rec, err := Open(nil, path, migrationBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	if rec.Segments != 3 || rec.Replayed != 1 || rec.SkippedFrames != 0 || rec.LastSeq != 7 {
		t.Fatalf("recovery: %d segments, %d batches, %d skipped, seq %d; want 3, 1, 0, 7",
			rec.Segments, rec.Replayed, rec.SkippedFrames, rec.LastSeq)
	}
	requireSameTable(t, lt2.Current(), want)
	if st := lt2.Status(); st.CheckpointSeq != 6 || st.CheckpointAgeSeconds < 0 {
		t.Fatalf("checkpoint state not restored: %+v", st)
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
	if rec.LastSeq != 5 || rec.Replayed >= 5 {
		t.Fatalf("recovery: %d batches, seq %d; want bounded replay to seq 5",
			rec.Replayed, rec.LastSeq)
	}
	if got := tableRows(lt2.Current()); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered table differs from the pre-restart version")
	}
}

// checkpointed writes a live table over baseTable(t, 10) with one
// checkpoint segment (seq 1) and one batch past it, and returns its WAL
// path.
func checkpointed(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.wal")
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
	if _, err := lt.Append(batch(100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// appendSegmentFrame commits payload as one more frame of path's segment
// log: CRC-valid, whatever it holds.
func appendSegmentFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	segs, _, err := wal.Open(nil, segmentPath(path), wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer segs.Close()
	if _, err := segs.Append(payload); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointHardErrors: a segment log that recovery cannot apply whole
// must fail Open outright rather than fall back to a shorter table — the
// WAL behind it may be compacted, so that would silently lose rows. The
// cases: a segment taken against a different base, a CRC-valid frame that
// does not decode, segments that leave a gap in rows or do not advance
// the seq, a torn segment the compacted WAL no longer covers, and an
// undecodable checkpoint of the previous format.
func TestCheckpointHardErrors(t *testing.T) {
	open := func(path string) error {
		lt, _, err := Open(nil, path, baseTable(t, 10), Options{})
		if err == nil {
			lt.Close()
		}
		return err
	}
	if err := open(checkpointed(t)); err != nil {
		t.Fatalf("intact checkpoint refused: %v", err)
	}
	// Wrong base: each segment records the original base hash.
	if _, _, err := Open(nil, checkpointed(t), baseTable(t, 11), Options{}); err == nil {
		t.Fatal("open with a different base accepted a foreign segment")
	}
	hash := store.HashTable(baseTable(t, 10))
	grown, err := baseTable(t, 10).WithAppended(batch(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"undecodable": []byte("not a segment"),
		"row gap":     encodeSegment(hash, grown, 14, 15, 2, 0),
		"stale seq":   encodeSegment(hash, grown, 13, 15, 1, 0),
		"wrong width": encodeSegment(hash, migrationBase(), 0, 1, 2, 0),
	} {
		path := checkpointed(t)
		appendSegmentFrame(t, path, payload)
		if err := open(path); err == nil {
			t.Errorf("%s segment accepted", name)
		}
	}
	// A torn segment whose rows the compacted WAL no longer holds: Open
	// refuses it and leaves the segment log as it found it.
	path := checkpointed(t)
	raw, err := os.ReadFile(segmentPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(path), raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := open(path); err == nil {
		t.Fatal("open dropped a torn segment the WAL does not cover")
	}
	if after, _ := os.ReadFile(segmentPath(path)); len(after) != len(raw)-3 {
		t.Fatalf("refused open changed the segment log: %d bytes, want %d", len(after), len(raw)-3)
	}
	// A checkpoint of the previous format that does not decode, with no
	// segment beside it.
	path = filepath.Join(t.TempDir(), "t.wal")
	if err := os.WriteFile(checkpointPath(path), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := open(path); err == nil {
		t.Fatal("open decoded a corrupt format-1 checkpoint")
	}
}

// TestCheckpointBitFlipSweep flips every bit of a segment log, one at a
// time, and reopens. Every flip must be refused by Open, or dropped as a
// torn tail while the WAL still holds those rows and recovered to the
// same table; no flip may come back as a table with changed contents.
// Two logs are swept: one whose WAL was compacted after every segment
// (every flip loses rows, so every one must be refused) and one whose
// compactions all failed (every flip is covered by the WAL).
func TestCheckpointBitFlipSweep(t *testing.T) {
	for _, compacted := range []bool{true, false} {
		t.Run(fmt.Sprintf("compacted=%v", compacted), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "t.wal")
			var fs faultfs.FS = faultfs.OS{}
			if !compacted {
				fs = &stuckTruncateFS{FS: fs}
			}
			base := migrationBase()
			lt, _, err := Open(fs, path, base, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := lt.Append(migrationRows(i)); err != nil {
					t.Fatal(err)
				}
				if _, err := lt.Checkpoint(); (err != nil) == compacted {
					t.Fatalf("checkpoint %d: %v", i, err)
				}
			}
			want := lt.Current()
			lt.Close()
			wantSum := versionChecksum(want)
			walRaw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			segRaw, err := os.ReadFile(segmentPath(path))
			if err != nil {
				t.Fatal(err)
			}
			refused, dropped := 0, 0
			flipped := make([]byte, len(segRaw))
			for bit := 0; bit < 8*len(segRaw); bit++ {
				copy(flipped, segRaw)
				flipped[bit/8] ^= 1 << (bit % 8)
				if err := os.WriteFile(segmentPath(path), flipped, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, walRaw, 0o644); err != nil {
					t.Fatal(err)
				}
				lt, _, err := Open(nil, path, base, Options{})
				if err != nil {
					refused++
					continue
				}
				got := lt.Current()
				lt.Close()
				if got.NumRows() != want.NumRows() || versionChecksum(got) != wantSum {
					t.Fatalf("flip of bit %d recovered a %d-row table with changed contents", bit, got.NumRows())
				}
				dropped++
			}
			if compacted && dropped != 0 {
				t.Fatalf("%d flips were dropped although the WAL no longer covers their rows", dropped)
			}
			t.Logf("%d bits: %d refused, %d dropped as torn and recovered from the WAL", 8*len(segRaw), refused, dropped)
		})
	}
}

// versionChecksum hashes every cell of every column of tab in row order,
// NULLs and the numeric views the scan kernels read included.
func versionChecksum(tab *dataset.Table) uint64 {
	h := fnv.New64a()
	for _, c := range tab.Cols {
		vals, _, numeric := c.NumericView()
		for r := 0; r < tab.NumRows(); r++ {
			fmt.Fprintf(h, "%d|%v|", c.Value(r).Kind, c.Value(r))
			if numeric {
				fmt.Fprintf(h, "%x|", math.Float64bits(vals[r]))
			}
		}
	}
	return h.Sum64()
}

// TestConcurrentReadersDuringAppend holds reader goroutines on pinned
// versions while appends publish new ones, which share the pinned
// versions' arrays and write past them. Each reader re-checksums every
// column of the version it pinned, and every published version must
// still match the checksum taken at publication once all appends are
// done: a write into a cell a published version reads fails it. Run under
// -race this pins the MVCC claim that published versions are immutable.
func TestConcurrentReadersDuringAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	lt, _, err := Open(nil, path, baseTable(t, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	var published sync.Map // *dataset.Table -> uint64
	published.Store(lt.Current(), versionChecksum(lt.Current()))
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
				sum := versionChecksum(tab)
				if want, ok := published.Load(tab); ok && want.(uint64) != sum {
					t.Error("a pinned version's cells changed")
					return
				}
				if tab.NumRows() != n || versionChecksum(tab) != sum {
					t.Error("a pinned version changed while it was read")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		rows := batch(i*10, 5)
		if i%3 == 0 {
			rows[i%5][1] = dataset.Null
		}
		if _, err := lt.Append(rows); err != nil {
			t.Fatal(err)
		}
		published.Store(lt.Current(), versionChecksum(lt.Current()))
	}
	close(stop)
	wg.Wait()
	if lt.Current().NumRows() != 150 {
		t.Fatalf("rows %d, want 150", lt.Current().NumRows())
	}
	published.Range(func(v, sum any) bool {
		if versionChecksum(v.(*dataset.Table)) != sum.(uint64) {
			t.Errorf("the %d-row version changed after it was published", v.(*dataset.Table).NumRows())
		}
		return true
	})
}

// TestWithAppendedAfterFailedWALWrite: an append whose WAL write fails
// publishes nothing, but the version it built has already claimed the
// tails of the current version's arrays. The next append finds the claim
// stranded, copies, and must still land exactly the committed rows.
func TestWithAppendedAfterFailedWALWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	faulty := faultfs.NewFaulty(nil)
	lt, _, err := Open(faulty, path, baseTable(t, 10), Options{Retry: retry.Policy{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	if _, err := lt.Append(batch(100, 5)); err != nil {
		t.Fatal(err)
	}
	committed := tableRows(lt.Current())
	faulty.TearWritesAfter(7, errors.New("injected crash"))
	if seq, err := lt.Append(batch(200, 5)); err == nil || seq != 0 {
		t.Fatalf("torn append: seq %d err %v, want 0 and error", seq, err)
	}
	faulty.Clear()
	if _, err := lt.Append(batch(300, 3)); err != nil {
		t.Fatal(err)
	}
	want := append(committed, batch(300, 3)...)
	if got := tableRows(lt.Current()); !reflect.DeepEqual(got, want) {
		t.Fatalf("the append after a failed WAL write landed %v, want %v", got, want)
	}
	lt.Close()
	lt2, _, err := Open(nil, path, baseTable(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt2.Close()
	if got := tableRows(lt2.Current()); !reflect.DeepEqual(got, want) {
		t.Fatal("replay differs from the published version")
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

// FuzzReadCheckpoint: recovery of a checkpoint segment log never panics
// on an arbitrary file, and a log it accepts yields a whole table — every
// column as long as the table, every row readable — whose appended rows
// re-encode to a segment that decodes to the same table.
func FuzzReadCheckpoint(f *testing.F) {
	path := filepath.Join(f.TempDir(), "t.wal")
	lt, _, err := Open(nil, path, migrationBase(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := lt.Append(migrationRows(i)); err != nil {
			f.Fatal(err)
		}
		if _, err := lt.Checkpoint(); err != nil {
			f.Fatal(err)
		}
	}
	lt.Close()
	seed, err := os.ReadFile(segmentPath(path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	base := migrationBase()
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "t.wal.seg")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, _, err := readSegments(faultfs.OS{}, p, base)
		if err != nil {
			return
		}
		tab := ck.cur
		for _, c := range tab.Cols {
			if c.Len() != tab.NumRows() {
				t.Fatalf("column %q has %d rows, table %d", c.Def.Name, c.Len(), tab.NumRows())
			}
		}
		for i := 0; i < tab.NumRows(); i++ {
			tab.Row(i)
		}
		_, seg, err := decodeSegmentHeader(encodeSegment("", tab, base.NumRows(), tab.NumRows(), 1, 0))
		if err != nil {
			t.Fatal(err)
		}
		again, err := base.WithSegment(seg)
		if err != nil {
			t.Fatalf("accepted segments do not re-encode: %v", err)
		}
		if versionChecksum(again) != versionChecksum(tab) {
			t.Fatal("re-encoded segment decodes to a different table")
		}
	})
}
