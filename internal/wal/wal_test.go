package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"viewseeker/internal/faultfs"
	"viewseeker/internal/retry"
)

// frame is one replayed frame, its payload copied out of the scan buffer.
type frame struct {
	Seq     uint64
	Payload []byte
}

// testPayload is a distinct, variable-length payload per i.
func testPayload(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("payload-%d;", i)), 1+i%4)
}

func openT(t *testing.T, fs faultfs.FS, path string, opts Options) (*Log, *Recovery, []frame) {
	t.Helper()
	var frames []frame
	l, rec, err := Open(fs, path, opts, func(seq uint64, p []byte) error {
		frames = append(frames, frame{seq, bytes.Clone(p)})
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec, frames
}

// encodeFrames is the on-disk image of frames: u32 len | u32 crc32c |
// u64 seq | payload each.
func encodeFrames(frames []frame) []byte {
	var out []byte
	for _, f := range frames {
		body := binary.LittleEndian.AppendUint64(nil, f.Seq)
		body = append(body, f.Payload...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crcTable))
		out = append(out, body...)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, rec, frames := openT(t, nil, path, Options{})
	if rec.LastSeq != 0 || len(frames) != 0 {
		t.Fatalf("fresh log recovered %d frames, seq %d", len(frames), rec.LastSeq)
	}
	var want []frame
	for i := 0; i < 5; i++ {
		seq, err := l.Append(testPayload(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq %d, want %d", i, seq, i+1)
		}
		want = append(want, frame{seq, testPayload(i)})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2, got := openT(t, nil, path, Options{})
	if rec2.TornTail || rec2.LastSeq != 5 {
		t.Fatalf("clean log recovered %+v", rec2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed frames differ:\n got %+v\nwant %+v", got, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, encodeFrames(want)) {
		t.Fatal("on-disk bytes are not the documented frame format")
	}
	// Appends continue the chain after reopen.
	if seq, err := l2.Append(testPayload(99)); err != nil || seq != 6 {
		t.Fatalf("post-reopen Append: seq %d err %v, want 6 nil", seq, err)
	}
}

// TestParentFormatFixture opens a log written by the codec that predates
// the frame log's split from the batch codec (testdata/parent-v1.wal: four
// batches). It must recover every frame untouched, and the frames must
// re-encode to the file byte for byte. internal/live decodes the same
// fixture back to its rows.
func TestParentFormatFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, frames := openT(t, nil, path, Options{})
	if rec.TornTail || rec.LastSeq != 4 || len(frames) != 4 || rec.CommittedBytes != int64(len(raw)) {
		t.Fatalf("fixture recovery: %+v, %d frames", rec, len(frames))
	}
	for i, f := range frames {
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
	}
	if !bytes.Equal(encodeFrames(frames), raw) {
		t.Fatal("recovered frames do not re-encode to the fixture")
	}
	// Append writes the same bytes: header, then the payload in place.
	again := filepath.Join(t.TempDir(), "again.wal")
	l, _, _ := openT(t, nil, again, Options{})
	for _, f := range frames {
		if _, err := l.Append(f.Payload); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if written, err := os.ReadFile(again); err != nil || !bytes.Equal(written, raw) {
		t.Fatalf("Append wrote %d bytes that differ from the fixture (err %v)", len(written), err)
	}
}

// TestRecoveryFaultTornTail appends through a tearing FS so a partial
// frame lands on disk (retries disabled so the tear survives), then checks
// Open truncates it and replays exactly the committed prefix.
func TestRecoveryFaultTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	fs := faultfs.NewFaulty(nil)
	l, _, _ := openT(t, fs, path, Options{Retry: retry.Policy{Attempts: 1}})
	committed := testPayload(4)
	if _, err := l.Append(committed); err != nil {
		t.Fatalf("Append: %v", err)
	}

	// Tear mid-frame and make truncation fail too, simulating a crash
	// before repair: the partial frame stays on disk for recovery to find.
	tearErr := errors.New("injected tear")
	fs.TearWritesAfter(10, tearErr)
	failFS := &failTruncateFS{FS: fs}
	l2, _, _ := openT(t, failFS, path, Options{Retry: retry.Policy{Attempts: 1}})
	if _, err := l2.Append(testPayload(50)); err == nil {
		t.Fatal("torn append reported success")
	}
	fs.Clear()
	l2.Close()

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	l3, rec, frames := openT(t, fs, path, Options{})
	if !rec.TornTail {
		t.Fatal("recovery missed the torn tail")
	}
	if rec.TornBytes != 10 {
		t.Fatalf("TornBytes = %d, want 10", rec.TornBytes)
	}
	if len(frames) != 1 || !bytes.Equal(frames[0].Payload, committed) {
		t.Fatalf("recovery did not restore the committed prefix: %+v", frames)
	}
	st2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Size() >= st.Size() || st2.Size() != rec.CommittedBytes {
		t.Fatalf("truncation sizes: before %d after %d committed %d", st.Size(), st2.Size(), rec.CommittedBytes)
	}
	// The log is writable again after recovery.
	if seq, err := l3.Append(testPayload(7)); err != nil || seq != 2 {
		t.Fatalf("post-recovery Append: seq %d err %v, want 2 nil", seq, err)
	}
}

// TestAppendRetryCompletesTear: one torn write followed by healthy writes —
// the retry must complete the frame's missing suffix so the log stays
// byte-perfect.
func TestFaultAppendRetryCompletesTear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	fs := faultfs.NewFaulty(nil)
	l, _, _ := openT(t, fs, path, Options{Retry: retry.Policy{Attempts: 3, Sleep: func(time.Duration) {}}})
	p1 := testPayload(3)
	fs.FailNextWrites(1, errors.New("transient"))
	if _, err := l.Append(p1); err != nil {
		t.Fatalf("Append with transient fault: %v", err)
	}
	l.Close()

	// Reopen through an FS that tears exactly one write mid-frame: the
	// retry must resume at the torn byte, not rewrite the whole frame.
	tfs := &tearOnceFS{FS: faultfs.OS{}, tearAt: 5}
	l2, _, _ := openT(t, tfs, path, Options{Retry: retry.Policy{Attempts: 3, Sleep: func(time.Duration) {}}})
	p2 := testPayload(10)
	if _, err := l2.Append(p2); err != nil {
		t.Fatalf("Append with torn first write: %v", err)
	}
	if !tfs.torn {
		t.Fatal("tear fault never fired")
	}
	l2.Close()

	_, rec, frames := openT(t, nil, path, Options{})
	if rec.TornTail {
		t.Fatal("retried appends left a torn tail")
	}
	if len(frames) != 2 || !bytes.Equal(frames[0].Payload, p1) || !bytes.Equal(frames[1].Payload, p2) {
		t.Fatalf("replay after retries: %+v", frames)
	}
}

// tearOnceFS persists the first tearAt bytes of one write, errors it, then
// behaves normally — a single transient torn write.
type tearOnceFS struct {
	faultfs.FS
	tearAt int
	torn   bool
}

func (f *tearOnceFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tearOnceFile{File: file, fs: f}, nil
}

type tearOnceFile struct {
	faultfs.File
	fs *tearOnceFS
}

func (f *tearOnceFile) Write(p []byte) (int, error) {
	if !f.fs.torn && len(p) > f.fs.tearAt {
		f.fs.torn = true
		n, err := f.File.Write(p[:f.fs.tearAt])
		if err != nil {
			return n, err
		}
		return n, errors.New("injected one-shot tear")
	}
	return f.File.Write(p)
}

// failTruncateFS makes torn-tail repair impossible, forcing the poison path.
type failTruncateFS struct{ faultfs.FS }

func (f *failTruncateFS) Truncate(string, int64) error {
	return errors.New("injected truncate failure")
}

func TestFaultPoisonedAfterFailedTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	faulty := faultfs.NewFaulty(nil)
	fs := &failTruncateFS{FS: faulty}
	l, _, _ := openT(t, fs, path, Options{Retry: retry.Policy{Attempts: 1}})
	if _, err := l.Append(testPayload(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	faulty.TearWritesAfter(3, errors.New("tear"))
	if _, err := l.Append(testPayload(1)); err == nil {
		t.Fatal("torn, untruncatable append reported success")
	}
	faulty.Clear()
	if _, err := l.Append(testPayload(2)); err == nil {
		t.Fatal("poisoned log accepted an append")
	}
	if err := l.CompactThrough(1); err == nil {
		t.Fatal("poisoned log accepted a compaction")
	}
	// Reopen through a healthy FS repairs the tail.
	l.Close()
	l2, rec, frames := openT(t, nil, path, Options{})
	if len(frames) != 1 || !rec.TornTail {
		t.Fatalf("recovery after poison: %d frames, torn=%v", len(frames), rec.TornTail)
	}
	if _, err := l2.Append(testPayload(3)); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

// TestRecoveryCorruptPayload flips a byte inside a committed frame: the
// checksum must reject it and truncate from that frame on, and TornBytes
// must count every byte dropped, not just the failing frame's.
func TestRecoveryCorruptPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, _ := openT(t, nil, path, Options{})
	for i := 0; i < 3; i++ {
		l.Append(testPayload(i))
	}
	l.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a payload byte of the second frame. Frame 1's length is in
	// its first 4 bytes.
	frame1 := headerLen + int64(binary.LittleEndian.Uint32(raw[0:4]))
	raw[frame1+headerLen+seqLen+2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec, frames := openT(t, nil, path, Options{})
	if !rec.TornTail || len(frames) != 1 || frames[0].Seq != 1 {
		t.Fatalf("corrupt second frame: torn=%v frames=%d", rec.TornTail, len(frames))
	}
	if rec.CommittedBytes != frame1 || rec.TornBytes != int64(len(raw))-frame1 {
		t.Fatalf("committed %d torn %d, want %d and %d", rec.CommittedBytes, rec.TornBytes, frame1, int64(len(raw))-frame1)
	}
}

// TestRecoverySeqChainBreak: a frame whose sequence number skips ahead is
// rejected even though its checksum is valid — logs cannot replay out of
// order.
func TestRecoverySeqChainBreak(t *testing.T) {
	dir := t.TempDir()
	b := filepath.Join(dir, "b.wal")
	lb, _, _ := openT(t, nil, b, Options{})
	lb.Append(testPayload(0))
	lb.Append(testPayload(1))
	lb.Close()
	// Splice b's second frame (seq 2) after nothing: seq chain 2 ≠ 1.
	rawB, _ := os.ReadFile(b)
	frameB1 := headerLen + int64(binary.LittleEndian.Uint32(rawB[0:4]))
	spliced := filepath.Join(dir, "s.wal")
	if err := os.WriteFile(spliced, rawB[frameB1:], 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, frames := openT(t, nil, spliced, Options{})
	if !rec.TornTail || len(frames) != 0 {
		t.Fatalf("out-of-order frame accepted: torn=%v frames=%d", rec.TornTail, len(frames))
	}
}

// TestScanIsReadOnly: Scan reports a torn tail but leaves the file alone;
// only Open repairs.
func TestScanIsReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, _ := openT(t, nil, path, Options{})
	l.Append(testPayload(0))
	l.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("garbage"))
	f.Close()
	before, _ := os.ReadFile(path)

	n := 0
	rec, err := Scan(nil, path, 0, func(uint64, []byte) error { n++; return nil })
	if err != nil || n != 1 || !rec.TornTail || rec.TornBytes != 7 {
		t.Fatalf("Scan: %d frames, %+v, %v", n, rec, err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("Scan modified the log")
	}
}

// TestReplayErrorAbortsOpen: an error from the replay function fails Open
// and leaves the log, torn tail included, exactly as it was.
func TestReplayErrorAbortsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, _ := openT(t, nil, path, Options{})
	l.Append(testPayload(0))
	l.Append(testPayload(1))
	l.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte{1, 2, 3})
	f.Close()
	before, _ := os.ReadFile(path)

	bad := errors.New("undecodable")
	_, _, err := Open(nil, path, Options{}, func(seq uint64, _ []byte) error {
		if seq == 2 {
			return bad
		}
		return nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("Open err = %v, want the replay error", err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("failed Open modified the log")
	}
}

func TestSyncEveryBatchesFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	fs := &countingFS{FS: faultfs.OS{}}
	l, _, _ := openT(t, fs, path, Options{SyncEvery: 3})
	for i := 0; i < 7; i++ {
		if _, err := l.Append(testPayload(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if got := fs.syncs.count(); got != 2 { // after frames 3 and 6
		t.Fatalf("fsyncs after 7 appends with SyncEvery=3: %d, want 2", got)
	}
	l.Close() // final sync
	if got := fs.syncs.count(); got != 3 {
		t.Fatalf("fsyncs after Close: %d, want 3", got)
	}
}

type syncCounter struct {
	n  int
	mu chan struct{}
}

func newSyncCounter() *syncCounter {
	c := &syncCounter{mu: make(chan struct{}, 1)}
	c.mu <- struct{}{}
	return c
}
func (c *syncCounter) inc() {
	<-c.mu
	c.n++
	c.mu <- struct{}{}
}
func (c *syncCounter) count() int {
	<-c.mu
	n := c.n
	c.mu <- struct{}{}
	return n
}

type countingFS struct {
	faultfs.FS
	syncs *syncCounter
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	if c.syncs == nil {
		c.syncs = newSyncCounter()
	}
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, syncs: c.syncs}, nil
}

type countingFile struct {
	faultfs.File
	syncs *syncCounter
}

func (c *countingFile) Sync() error {
	c.syncs.inc()
	return c.File.Sync()
}

// TestSkipThroughRecovery: recovery with SkipThrough validates every frame
// but does not replay the already-covered prefix, and LastSeq never goes
// below SkipThrough even when the log holds nothing past it.
func TestSkipThroughRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, _ := openT(t, nil, path, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, rec, frames := openT(t, nil, path, Options{SkipThrough: 3})
	if rec.SkippedFrames != 3 || len(frames) != 2 || rec.LastSeq != 5 || rec.TornTail {
		t.Fatalf("skip 3: %d skipped, %d frames, seq %d, torn %v",
			rec.SkippedFrames, len(frames), rec.LastSeq, rec.TornTail)
	}
	if frames[0].Seq != 4 || frames[1].Seq != 5 {
		t.Fatalf("surviving frame seqs: %d, %d", frames[0].Seq, frames[1].Seq)
	}
	l2.Close()

	// Everything covered: no frames, but the seq counter holds.
	l3, rec, frames := openT(t, nil, path, Options{SkipThrough: 5})
	if rec.SkippedFrames != 5 || len(frames) != 0 || rec.LastSeq != 5 {
		t.Fatalf("skip 5: %d skipped, %d frames, seq %d",
			rec.SkippedFrames, len(frames), rec.LastSeq)
	}
	l3.Close()

	// SkipThrough beyond the log: LastSeq = SkipThrough, appends continue
	// from there (the external snapshot is ahead of this log).
	l4, rec, frames := openT(t, nil, path, Options{SkipThrough: 7})
	if rec.LastSeq != 7 || len(frames) != 0 {
		t.Fatalf("skip 7: %d frames, seq %d", len(frames), rec.LastSeq)
	}
	if seq, err := l4.Append(testPayload(0)); err != nil || seq != 8 {
		t.Fatalf("append after skip-beyond: seq %d err %v", seq, err)
	}
}

// TestCompactThroughTail: compacting through the newest frame truncates
// the log to zero in place; the append handle survives and recovery with
// the matching SkipThrough sees only later frames.
func TestCompactThroughTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, _ := openT(t, nil, path, Options{})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Bytes() == 0 {
		t.Fatal("Bytes() = 0 after appends")
	}
	if err := l.CompactThrough(3); err != nil {
		t.Fatal(err)
	}
	if l.Bytes() != 0 {
		t.Fatalf("Bytes() = %d after full compaction, want 0", l.Bytes())
	}
	p := testPayload(100)
	if seq, err := l.Append(p); err != nil || seq != 4 {
		t.Fatalf("append after compaction: seq %d err %v", seq, err)
	}
	l.Close()

	_, rec, frames := openT(t, nil, path, Options{SkipThrough: 3})
	if len(frames) != 1 || frames[0].Seq != 4 || rec.LastSeq != 4 || rec.SkippedFrames != 0 {
		t.Fatalf("recovery after tail compaction: %+v, %d frames", rec, len(frames))
	}
	if !bytes.Equal(frames[0].Payload, p) {
		t.Fatal("surviving frame payload differs")
	}
}

// TestCompactThroughPartial: compacting through a mid-log seq rewrites the
// retained suffix; the kept frames replay byte-identically and appends
// continue on the rewritten file.
func TestCompactThroughPartial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, _ := openT(t, nil, path, Options{})
	var kept []frame
	for i := 0; i < 5; i++ {
		seq, err := l.Append(testPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			kept = append(kept, frame{seq, testPayload(i)})
		}
	}
	before := l.Bytes()
	if err := l.CompactThrough(2); err != nil {
		t.Fatal(err)
	}
	if after := l.Bytes(); after == 0 || after >= before {
		t.Fatalf("Bytes() = %d after partial compaction, want in (0, %d)", after, before)
	}
	seq, err := l.Append(testPayload(900))
	if err != nil || seq != 6 {
		t.Fatalf("append after compaction: seq %d err %v", seq, err)
	}
	kept = append(kept, frame{seq, testPayload(900)})
	l.Close()

	_, rec, frames := openT(t, nil, path, Options{SkipThrough: 2})
	if rec.LastSeq != 6 || rec.SkippedFrames != 0 || rec.TornTail {
		t.Fatalf("recovery after partial compaction: %+v", rec)
	}
	if !reflect.DeepEqual(frames, kept) {
		t.Fatalf("kept frames differ:\n got %+v\nwant %+v", frames, kept)
	}
	if dir, _ := os.ReadDir(filepath.Dir(path)); len(dir) != 1 {
		t.Fatalf("compaction left %d files behind, want only the log", len(dir))
	}
}

// TestCompactedLogNeedsSkipThrough pins the misuse contract: a compacted
// log opened without the matching SkipThrough starts mid-chain, which is
// indistinguishable from corruption and reported as a torn tail.
func TestCompactedLogNeedsSkipThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, _ := openT(t, nil, path, Options{})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CompactThrough(2); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec, frames := openT(t, nil, path, Options{})
	if !rec.TornTail || len(frames) != 0 {
		t.Fatalf("mid-chain log without SkipThrough: torn %v, %d frames",
			rec.TornTail, len(frames))
	}
}

// FuzzFrameRecovery opens arbitrary file bytes as a log. It must never
// panic; the frames it recovers must re-encode to the end of the committed
// prefix (skipped frames precede them), the file must be cut to exactly
// that prefix, and a second open must find nothing left to repair.
func FuzzFrameRecovery(f *testing.F) {
	var valid []frame
	for i := 0; i < 4; i++ {
		valid = append(valid, frame{uint64(i + 1), testPayload(i)})
	}
	img := encodeFrames(valid)
	f.Add(img, uint8(0))
	f.Add(img, uint8(2))
	f.Add(img[:len(img)-3], uint8(0))
	f.Add(append(bytes.Clone(img), "torn"...), uint8(1))
	f.Add([]byte(`{"op":"create","session":"s1"}`+"\n"), uint8(0))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, skip uint8) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, frames := openT(t, nil, path, Options{SkipThrough: uint64(skip)})
		l.Close()
		if rec.CommittedBytes+rec.TornBytes != int64(len(data)) || rec.TornTail != (rec.TornBytes > 0) {
			t.Fatalf("committed %d + torn %d != %d bytes", rec.CommittedBytes, rec.TornBytes, len(data))
		}
		enc := encodeFrames(frames)
		if int64(len(enc)) > rec.CommittedBytes || !bytes.Equal(enc, data[rec.CommittedBytes-int64(len(enc)):rec.CommittedBytes]) {
			t.Fatal("recovered frames do not re-encode to the committed prefix")
		}
		if st, err := os.Stat(path); err != nil || st.Size() != rec.CommittedBytes {
			t.Fatalf("file not cut to the committed prefix: %v", err)
		}
		_, rec2, frames2 := openT(t, nil, path, Options{SkipThrough: uint64(skip)})
		if rec2.TornTail || rec2.CommittedBytes != rec.CommittedBytes || !reflect.DeepEqual(frames2, frames) {
			t.Fatalf("second open was not a no-op: %+v vs %+v", rec2, rec)
		}
	})
}
