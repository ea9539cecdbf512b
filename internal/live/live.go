package live

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/obs"
	"viewseeker/internal/retry"
	"viewseeker/internal/store"
	"viewseeker/internal/wal"
)

// Options configures a live table.
type Options struct {
	// SyncEvery is the WAL fsync batching schedule (wal.Options.SyncEvery).
	SyncEvery int
	// Retry is the WAL append retry schedule; zero selects retry.Default().
	Retry retry.Policy
	// CheckpointBytes, when > 0, auto-checkpoints the table whenever the
	// WAL's on-disk size reaches it: the current version is persisted as a
	// snapshot and the log is compacted, bounding recovery replay to the
	// appends since the last checkpoint. 0 disables auto-checkpointing
	// (manual Checkpoint still works).
	CheckpointBytes int64
}

// Table is a WAL-backed mutable table: a base snapshot plus a redo log of
// append batches. Every append first commits to the log, then publishes a
// new immutable table version (dataset.Table.WithAppended), so readers —
// recommendation sessions, scans in flight — keep the exact version they
// started with while new work sees the appended data. Versions are
// addressed by VersionRef: the base content hash plus the WAL sequence
// number, a monotone O(1) identity that lets offline-cache entries survive
// appends as ancestors instead of being invalidated wholesale.
type Table struct {
	mu   sync.Mutex
	base *dataset.Table
	cur  *dataset.Table
	w    *wal.Log
	seq  uint64

	fs        faultfs.FS
	path      string
	ckptBytes int64

	checkpointing atomic.Bool   // single-flight latch for Checkpoint
	ckptSeq       atomic.Uint64 // seq covered by the newest durable snapshot
	ckptAtUnix    atomic.Int64  // when it was written (unix seconds; 0 = never)
	wg            sync.WaitGroup

	mAppendRows   *obs.Counter
	mVersions     *obs.Gauge
	mCheckpoints  *obs.Counter
	mCkptFailures *obs.Counter
	mCkptSeqGauge *obs.Gauge
}

// Open opens (creating if needed) the WAL at path and replays its
// committed batches, returning the live table at its last committed
// version. base must be the same snapshot the log was started against —
// the WAL stores row deltas, not contents, so replaying against a
// different base silently builds a different table. A torn tail from a
// crash mid-append is truncated by the WAL layer; the table comes back at
// the last fully committed batch with no partial rows (batches commit
// atomically: one WAL record, one WithAppended).
//
// When a checkpoint snapshot exists next to the log (path + ".ckpt"),
// replay starts from it instead of base and the log's already-covered
// prefix — still present after a crash between the snapshot rename and
// the log truncation — is detected by seq and skipped, so recovery cost
// is bounded by the appends since the last checkpoint regardless of total
// history. The snapshot records base's content hash and Open refuses a
// snapshot taken against a different base. A snapshot that exists but no
// longer decodes is a hard error, not a silent fallback: the log may
// have been compacted, so replaying from base could lose data.
//
// A frame that passes its checksum but does not decode as a batch is a
// hard error too: it was written whole, so it is not a torn tail, and
// dropping it would silently lose every later batch.
//
// fs is the filesystem (nil selects the OS); tests inject faultfs.Faulty.
// The returned Recovery reports what replay found.
func Open(fs faultfs.FS, path string, base *dataset.Table, opts Options) (*Table, *Recovery, error) {
	if base == nil {
		return nil, nil, fmt.Errorf("live: nil base table")
	}
	if fs == nil {
		fs = faultfs.OS{}
	}
	start := base
	var ckptSeq uint64
	var ckptAt int64
	ck, ckTable, err := readCheckpoint(fs, CheckpointPath(path))
	if err != nil {
		return nil, nil, err
	}
	if ck != nil {
		if want := store.HashTable(base); ck.BaseHash != want {
			return nil, nil, fmt.Errorf("live: checkpoint %s was taken against base %s, not %s",
				CheckpointPath(path), ck.BaseHash, want)
		}
		start = ckTable
		ckptSeq = ck.Seq
		ckptAt = ck.WrittenUnix
	}
	rec := &Recovery{}
	w, wrec, err := wal.Open(fs, path, wal.Options{
		SyncEvery: opts.SyncEvery, Retry: opts.Retry, SkipThrough: ckptSeq,
	}, func(seq uint64, payload []byte) error {
		rows, err := decodeBatch(payload)
		if err != nil {
			return fmt.Errorf("live: WAL %s frame %d: %w", path, seq, err)
		}
		rec.Batches = append(rec.Batches, Batch{Seq: seq, Rows: rows})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rec.Recovery = *wrec
	cur := start
	for _, b := range rec.Batches {
		next, err := cur.WithAppended(b.Rows)
		if err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("live: replaying batch %d: %w", b.Seq, err)
		}
		cur = next
	}
	t := &Table{
		base: base, cur: cur, w: w, seq: rec.LastSeq,
		fs: fs, path: path, ckptBytes: opts.CheckpointBytes,
	}
	t.ckptSeq.Store(ckptSeq)
	t.ckptAtUnix.Store(ckptAt)
	return t, rec, nil
}

// Recovery reports what Open found: the WAL's recovery scan plus the
// batches it replayed, in sequence order.
type Recovery struct {
	wal.Recovery
	// Batches are the committed batches past the checkpoint.
	Batches []Batch
}

// Instrument registers the live-table metrics (and the underlying WAL's)
// against reg, and feeds rec — when non-nil — into the recovery counters.
func (t *Table) Instrument(reg *obs.Registry, rec *Recovery) {
	t.w.Instrument(wal.Metrics{
		Appends:       reg.Counter("viewseeker_wal_appends_total"),
		Bytes:         reg.Counter("viewseeker_wal_bytes_total"),
		Truncations:   reg.Counter("viewseeker_wal_truncations_total"),
		Compactions:   reg.Counter("viewseeker_wal_compactions_total"),
		RetryBackoffs: reg.Counter("viewseeker_retry_backoffs_total"),
		RetryExhausts: reg.Counter("viewseeker_retry_exhausted_total"),
		LastSeq:       reg.Gauge("viewseeker_wal_last_seq"),
		DiskBytes:     reg.Gauge("viewseeker_wal_bytes"),
		FsyncSeconds:  reg.Histogram("viewseeker_wal_fsync_seconds", obs.DurationBuckets),
	})
	recovered := reg.Counter("viewseeker_wal_recovered_batches_total")
	tornTails := reg.Counter("viewseeker_wal_torn_tails_total")
	if rec != nil {
		recovered.Add(int64(len(rec.Batches)))
		if rec.TornTail {
			tornTails.Inc()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mAppendRows = reg.Counter("viewseeker_live_appended_rows_total")
	t.mVersions = reg.Gauge("viewseeker_live_last_seq")
	t.mVersions.Set(int64(t.seq))
	t.mCheckpoints = reg.Counter("viewseeker_live_checkpoints_total")
	t.mCkptFailures = reg.Counter("viewseeker_live_checkpoint_failures_total")
	t.mCkptSeqGauge = reg.Gauge("viewseeker_live_checkpoint_seq")
	t.mCkptSeqGauge.Set(int64(t.ckptSeq.Load()))
	// Age is computed at scrape time so it stays fresh without a ticker;
	// -1 means no checkpoint has ever been taken.
	reg.GaugeFunc("viewseeker_live_checkpoint_age_seconds", func() int64 {
		at := t.ckptAtUnix.Load()
		if at == 0 {
			return -1
		}
		return time.Now().Unix() - at
	})
}

// Append durably commits one batch of rows and publishes the new table
// version, returning the batch's WAL sequence number. The batch is
// validated and materialised first (a bad row changes nothing anywhere),
// logged second, and only then made visible — so a version is never
// observable before it is recoverable. A non-nil error with seq != 0
// means the batch committed but its fsync failed (durability is behind;
// the next sync retries): the version is still published.
func (t *Table) Append(rows [][]dataset.Value) (uint64, error) {
	if len(rows) == 0 {
		return 0, fmt.Errorf("live: empty append batch")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next, err := t.cur.WithAppended(rows)
	if err != nil {
		return 0, fmt.Errorf("live: %w", err)
	}
	payload, err := encodeBatch(rows)
	if err != nil {
		return 0, err
	}
	seq, werr := t.w.Append(payload)
	if seq == 0 {
		return 0, werr
	}
	t.cur = next
	t.seq = seq
	t.mAppendRows.Add(int64(len(rows)))
	t.mVersions.Set(int64(seq))
	t.maybeCheckpointLocked()
	return seq, werr
}

// maybeCheckpointLocked kicks off a background checkpoint when the WAL has
// grown past the configured threshold. Called with t.mu held; the
// checkpoint itself runs on its own goroutine (serialising a large table
// under the append lock would stall writers). The single-flight latch in
// Checkpoint makes a storm of triggers harmless.
func (t *Table) maybeCheckpointLocked() {
	if t.ckptBytes <= 0 || t.checkpointing.Load() || t.w.Bytes() < t.ckptBytes {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if _, err := t.Checkpoint(); err != nil {
			// Failure is already counted; the next threshold crossing
			// retries. The log keeps growing but stays fully recoverable.
			_ = err
		}
	}()
}

// Current returns the latest published table version. The returned table
// is immutable — later appends publish new versions instead of mutating
// it — so callers may scan it unsynchronised for as long as they like.
func (t *Table) Current() *dataset.Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// Snapshot returns the latest published version together with its WAL
// sequence number, read atomically — Current and Seq taken separately can
// straddle a concurrent append.
func (t *Table) Snapshot() (*dataset.Table, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur, t.seq
}

// Base returns the snapshot the WAL replays against.
func (t *Table) Base() *dataset.Table { return t.base }

// Seq returns the last committed WAL sequence number (0 = base only).
func (t *Table) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// VersionRef returns the cache address of the current version: the base
// table's content hash extended with the WAL sequence number
// (store.VersionedRef). Computing it is O(1) after the first call — the
// base hash is memoized on the table — which is the whole point: the
// append path never re-hashes table contents.
func (t *Table) VersionRef() string {
	t.mu.Lock()
	seq := t.seq
	base := t.base
	t.mu.Unlock()
	return store.VersionedRef(store.HashTable(base), seq)
}

// Sync flushes the WAL to stable storage.
func (t *Table) Sync() error { return t.w.Sync() }

// Close waits for any in-flight background checkpoint, then syncs and
// closes the WAL. The current version stays readable; further appends
// fail.
func (t *Table) Close() error {
	t.wg.Wait()
	return t.w.Close()
}

// checkpointVersion is the snapshot file format version; bump on any
// incompatible change so stale files error instead of misloading.
const checkpointVersion = 1

// checkpointFile is the gob-encoded snapshot: the serialised table version
// at Seq, plus the ORIGINAL base table's content hash. Storing the
// original hash — not the checkpointed table's — keeps VersionRef
// addresses (baseHash@seq) stable across checkpoints and restarts, so
// offline-cache entries keyed by them stay valid. The table bytes are the
// dataset binary encoding wrapped as one gob field, keeping the file a
// single self-delimiting gob stream.
type checkpointFile struct {
	Version     int
	BaseHash    string
	Seq         uint64
	WrittenUnix int64
	Table       []byte
}

// CheckpointPath returns where the snapshot for the WAL at walPath lives.
func CheckpointPath(walPath string) string { return walPath + ".ckpt" }

// readCheckpoint loads and validates the snapshot at path. A missing file
// is (nil, nil, nil); a file that exists but fails to decode is an error —
// see Open for why there is no silent fallback.
func readCheckpoint(fs faultfs.FS, path string) (*checkpointFile, *dataset.Table, error) {
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("live: opening checkpoint %s: %w", path, err)
	}
	defer f.Close()
	var ck checkpointFile
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, nil, fmt.Errorf("live: decoding checkpoint %s: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return nil, nil, fmt.Errorf("live: checkpoint %s has version %d, want %d", path, ck.Version, checkpointVersion)
	}
	tab, err := dataset.ReadBinary(bytes.NewReader(ck.Table))
	if err != nil {
		return nil, nil, fmt.Errorf("live: decoding checkpoint table %s: %w", path, err)
	}
	return &ck, tab, nil
}

// Checkpoint persists the current version as a durable snapshot and
// compacts the WAL to the entries past it, returning the sequence number
// covered. It returns (0, nil) when there is nothing to do — no appends
// since the last checkpoint, or another checkpoint already in flight
// (checkpoints are single-flighted; concurrent callers don't stack).
//
// Appends proceed concurrently: the version and seq are captured
// atomically up front and serialisation happens outside the table lock.
// Crash atomicity is two-step. Before the snapshot rename, the old
// snapshot and full log are intact — recovery replays as if the
// checkpoint never started. After the rename but before the log
// compaction, the new snapshot wins and the log's duplicate prefix is
// skipped by seq during recovery. There is no window where data is only
// partially covered.
func (t *Table) Checkpoint() (uint64, error) {
	if !t.checkpointing.CompareAndSwap(false, true) {
		return 0, nil
	}
	defer t.checkpointing.Store(false)
	t.mu.Lock()
	cur, seq := t.cur, t.seq
	t.mu.Unlock()
	if seq == 0 || seq <= t.ckptSeq.Load() {
		return 0, nil
	}
	var buf bytes.Buffer
	if err := dataset.WriteBinary(cur, &buf); err != nil {
		t.mCkptFailures.Inc()
		return 0, fmt.Errorf("live: serialising checkpoint: %w", err)
	}
	ck := &checkpointFile{
		Version:     checkpointVersion,
		BaseHash:    store.HashTable(t.base),
		Seq:         seq,
		WrittenUnix: time.Now().Unix(),
		Table:       buf.Bytes(),
	}
	// Readers only ever see the old snapshot or the complete new one.
	path := CheckpointPath(t.path)
	if err := faultfs.WriteFileAtomic(t.fs, path, filepath.Base(path)+".tmp-*", func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(ck)
	}); err != nil {
		t.mCkptFailures.Inc()
		return 0, fmt.Errorf("live: publishing checkpoint: %w", err)
	}
	t.ckptSeq.Store(seq)
	t.ckptAtUnix.Store(ck.WrittenUnix)
	t.mCheckpoints.Inc()
	t.mCkptSeqGauge.Set(int64(seq))
	if err := t.w.CompactThrough(seq); err != nil {
		// The snapshot is durable, so nothing is lost — recovery skips the
		// log's covered prefix by seq. The log just didn't shrink.
		t.mCkptFailures.Inc()
		return seq, fmt.Errorf("live: checkpoint %d persisted but log compaction failed: %w", seq, err)
	}
	return seq, nil
}

// Status is a point-in-time summary of the table's streaming state, the
// shape /healthz reports.
type Status struct {
	// Seq is the last committed WAL sequence number.
	Seq uint64
	// Rows is the current version's row count.
	Rows int
	// WalBytes is the on-disk size of the (compacted) log.
	WalBytes int64
	// CheckpointSeq is the seq covered by the newest snapshot (0: none).
	CheckpointSeq uint64
	// CheckpointAgeSeconds is the snapshot's age (-1: none).
	CheckpointAgeSeconds int64
}

// Status returns the current streaming status.
func (t *Table) Status() Status {
	t.mu.Lock()
	seq, rows := t.seq, t.cur.NumRows()
	t.mu.Unlock()
	st := Status{
		Seq:                  seq,
		Rows:                 rows,
		WalBytes:             t.w.Bytes(),
		CheckpointSeq:        t.ckptSeq.Load(),
		CheckpointAgeSeconds: -1,
	}
	if at := t.ckptAtUnix.Load(); at != 0 {
		st.CheckpointAgeSeconds = time.Now().Unix() - at
	}
	return st
}
