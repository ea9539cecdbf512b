package live

import (
	"context"
	"fmt"
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
	// WAL's on-disk size reaches it: the rows appended since the previous
	// checkpoint are persisted as one segment and the log is compacted,
	// bounding recovery replay to the appends since the last checkpoint.
	// 0 disables auto-checkpointing (manual Checkpoint still works).
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
	mu          sync.Mutex
	base        *dataset.Table
	cur         *dataset.Table
	w           *wal.Log
	seq         uint64
	closed      bool // Close has begun: no new background checkpoint starts
	ckptPending bool // a background checkpoint is scheduled or running

	ckptBytes int64

	// ckptMu is held by the running checkpoint: Checkpoint only tries it
	// (checkpoints are single-flight), Close waits for it. It guards segs'
	// writes and ckptRows.
	ckptMu     sync.Mutex
	segs       *wal.Log      // the checkpoint segment log beside the WAL
	ckptRows   int           // rows the segments (with base) hold
	ckptSeq    atomic.Uint64 // seq covered by the newest segment
	ckptAtUnix atomic.Int64  // when it was written (unix seconds; 0 = never)
	wg         sync.WaitGroup

	tracer        *obs.Tracer
	mAppendRows   *obs.Counter
	mVersions     *obs.Gauge
	mCheckpoints  *obs.Counter
	mCkptFailures *obs.Counter
	mCkptBytes    *obs.Counter
	mCkptSeconds  *obs.Histogram
	mCkptSeqGauge *obs.Gauge
}

// Open opens (creating if needed) the WAL at path and its checkpoint
// segment log at path + ".seg", and recovers the live table at its last
// committed version: base, extended by every checkpoint segment in order,
// then by the WAL's committed batches past the last segment. base must be
// the same snapshot the log was started against — segments and the WAL
// store rows past it, not its contents, so recovering against a different
// base silently builds a different table; each segment records base's
// content hash and a mismatch fails Open. A torn WAL tail from a crash
// mid-append is truncated by the WAL layer; the table comes back at the
// last fully committed batch with no partial rows (batches commit
// atomically: one WAL record, one WithAppended).
//
// Segments extend base's own column storage (dataset.Table.WithSegment),
// so the recovered table holds the base rows once. The WAL frames the
// last segment already covers — still present after a crash between the
// segment sync and the log compaction — are skipped by seq, so recovery
// reads each appended row once however long the table has lived.
//
// A segment log is refused, not repaired, when dropping its torn tail
// would lose rows: a torn segment is dropped only while the WAL still
// holds every batch past the intact segments, as it does after a crash
// mid-checkpoint. A segment that passes its checksum but does not decode,
// carries another base's hash, or leaves a gap in row indices or seqs is a
// hard error too. So is a WAL frame that passes its checksum but does not
// decode as a batch: it was written whole, so it is not a torn tail, and
// dropping it would silently lose every later batch.
//
// A whole-table checkpoint written by the previous format (path +
// ".ckpt") is migrated once: Open writes one segment holding every row it
// has past base, syncs it, then removes the file.
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
	segPath := segmentPath(path)
	ck, segRec, err := readSegments(fs, segPath, base)
	if err != nil {
		return nil, nil, err
	}
	var v1 *v1Checkpoint
	var v1Table *dataset.Table
	if ck.segments == 0 {
		if v1, v1Table, err = readV1Checkpoint(fs, checkpointPath(path), base); err != nil {
			return nil, nil, err
		}
	}
	// A torn tail the format-1 checkpoint covers is its interrupted
	// migration; any other is dropped only if the WAL still covers it.
	if segRec.TornTail && v1 == nil {
		if err := walCovers(fs, path, ck.seq); err != nil {
			return nil, nil, err
		}
	}
	segs, _, err := wal.Open(fs, segPath, wal.Options{Retry: opts.Retry}, nil)
	if err != nil {
		return nil, nil, err
	}
	if v1 != nil {
		ck, err = migrateV1(fs, path, base, v1, v1Table, segs)
	} else if ck.segments > 0 {
		// The segments are durable; a format-1 checkpoint beside them is
		// left over from a migration interrupted before its removal.
		if err = segs.Sync(); err == nil {
			err = removeV1Checkpoint(fs, checkpointPath(path))
		}
	}
	if err != nil {
		segs.Close()
		return nil, nil, err
	}
	// Each committed batch is applied as the scan decodes it, so recovery
	// holds one decoded batch at a time. A failing frame stops the scan
	// before the WAL layer opens or truncates anything.
	rec := &Recovery{Segments: ck.segments}
	cur := ck.cur
	w, wrec, err := wal.Open(fs, path, wal.Options{
		SyncEvery: opts.SyncEvery, Retry: opts.Retry, SkipThrough: ck.seq,
	}, func(seq uint64, payload []byte) error {
		rows, err := decodeBatch(payload)
		if err != nil {
			return fmt.Errorf("live: WAL %s frame %d: %w", path, seq, err)
		}
		next, err := cur.WithAppended(rows)
		if err != nil {
			return fmt.Errorf("live: replaying batch %d: %w", seq, err)
		}
		cur = next
		rec.Replayed++
		return nil
	})
	if err != nil {
		segs.Close()
		return nil, nil, err
	}
	rec.Recovery = *wrec
	t := &Table{
		base: base, cur: cur, w: w, seq: rec.LastSeq, ckptBytes: opts.CheckpointBytes,
		segs: segs, ckptRows: ck.cur.NumRows(),
	}
	t.ckptSeq.Store(ck.seq)
	t.ckptAtUnix.Store(ck.at)
	return t, rec, nil
}

// Recovery reports what Open found: the WAL's recovery scan plus how many
// checkpoint segments it applied and batches it replayed.
type Recovery struct {
	wal.Recovery
	// Segments counts the checkpoint segments applied over base.
	Segments int
	// Replayed counts the committed batches past the last segment.
	Replayed int
}

// Instrument registers the live-table metrics (and the underlying WAL's)
// against reg, records checkpoints as live.checkpoint spans into tr (nil:
// none), and feeds rec — when non-nil — into the recovery counters.
func (t *Table) Instrument(reg *obs.Registry, tr *obs.Tracer, rec *Recovery) {
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
		recovered.Add(int64(rec.Replayed))
		if rec.TornTail {
			tornTails.Inc()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tracer = tr
	t.mAppendRows = reg.Counter("viewseeker_live_appended_rows_total")
	t.mVersions = reg.Gauge("viewseeker_live_last_seq")
	t.mVersions.Set(int64(t.seq))
	t.mCheckpoints = reg.Counter("viewseeker_live_checkpoints_total")
	t.mCkptFailures = reg.Counter("viewseeker_live_checkpoint_failures_total")
	t.mCkptBytes = reg.Counter("viewseeker_live_checkpoint_bytes_total")
	t.mCkptSeconds = reg.Histogram("viewseeker_live_checkpoint_seconds", obs.DurationBuckets)
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
// checkpoint itself runs on its own goroutine, and at most one is
// scheduled at a time, so a storm of triggers is harmless. None starts
// once Close has begun.
func (t *Table) maybeCheckpointLocked() {
	if t.ckptBytes <= 0 || t.closed || t.ckptPending || t.w.Bytes() < t.ckptBytes {
		return
	}
	t.ckptPending = true
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		// Failure is already counted; the next threshold crossing retries.
		// The log keeps growing but stays fully recoverable.
		_, _ = t.Checkpoint()
		t.mu.Lock()
		t.ckptPending = false
		t.mu.Unlock()
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

// Close waits for any in-flight checkpoint, then syncs and closes the WAL
// and the segment log. The current version stays readable; further
// appends and checkpoints fail.
func (t *Table) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.wg.Wait()
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	err := t.w.Close()
	if serr := t.segs.Close(); err == nil {
		err = serr
	}
	return err
}

// Checkpoint persists the rows appended since the previous checkpoint as
// one segment of the segment log and compacts the WAL to the entries past
// it, returning the sequence number covered. It returns (0, nil) when
// there is nothing to do — no appends since the last checkpoint, or
// another checkpoint already in flight (checkpoints are single-flighted;
// concurrent callers don't stack).
//
// Appends proceed concurrently: the version and seq are captured
// atomically up front, and the segment is encoded from that immutable
// version outside the table lock. The WAL is synced before the segment is
// written, and compacted only after the segment is synced, so there is no
// window where rows are only partially covered. Killed while the segment
// is written, the torn segment is dropped at recovery and the WAL, which
// still holds its batches, replays them. Killed after the segment sync but
// before the compaction, recovery applies the segment and skips the WAL's
// covered prefix by seq.
func (t *Table) Checkpoint() (uint64, error) {
	if !t.ckptMu.TryLock() {
		return 0, nil
	}
	defer t.ckptMu.Unlock()
	t.mu.Lock()
	cur, seq, tr := t.cur, t.seq, t.tracer
	t.mu.Unlock()
	if seq == 0 || seq <= t.ckptSeq.Load() {
		return 0, nil
	}
	start := time.Now()
	defer func() { t.mCkptSeconds.ObserveDuration(time.Since(start)) }()
	_, span := obs.StartSpan(obs.NewContext(context.Background(), nil, tr), "live.checkpoint")
	defer span.End()
	from, to := t.ckptRows, cur.NumRows()
	at := start.Unix()
	payload := encodeSegment(store.HashTable(t.base), cur, from, to, seq, at)
	span.SetAttr("seq", seq)
	span.SetAttr("rows", to-from)
	span.SetAttr("bytes", len(payload))
	if err := t.w.Sync(); err != nil {
		t.mCkptFailures.Inc()
		return 0, fmt.Errorf("live: syncing the WAL before checkpoint %d: %w", seq, err)
	}
	fseq, err := t.segs.Append(payload)
	if fseq == 0 {
		t.mCkptFailures.Inc()
		return 0, fmt.Errorf("live: writing checkpoint segment: %w", err)
	}
	// The segment is committed to its log, so the next one starts past it
	// whether or not its fsync succeeded.
	t.ckptRows = to
	t.ckptSeq.Store(seq)
	t.ckptAtUnix.Store(at)
	t.mCheckpoints.Inc()
	t.mCkptBytes.Add(int64(len(payload)))
	t.mCkptSeqGauge.Set(int64(seq))
	if err != nil {
		// Not yet durable: keep the WAL until a later sync covers it.
		t.mCkptFailures.Inc()
		return seq, fmt.Errorf("live: checkpoint %d written but not synced: %w", seq, err)
	}
	if err := t.w.CompactThrough(seq); err != nil {
		// The segment is durable, so nothing is lost — recovery skips the
		// log's covered prefix by seq. The log just didn't shrink.
		t.mCkptFailures.Inc()
		return seq, fmt.Errorf("live: checkpoint %d persisted but log compaction failed: %w", seq, err)
	}
	return seq, nil
}

// Status is a point-in-time summary of the table's streaming state, the
// shape /healthz reports.
type Status struct {
	// Seq is the last committed WAL sequence number (0 = base only).
	Seq uint64 `json:"seq"`
	// Rows is the current version's row count.
	Rows int `json:"rows"`
	// WalBytes is the on-disk size of the (compacted) log: replay cost on
	// the next restart is proportional to it.
	WalBytes int64 `json:"walBytes"`
	// CheckpointSeq is the seq covered by the newest checkpoint segment
	// (0: none).
	CheckpointSeq uint64 `json:"checkpointSeq"`
	// CheckpointAgeSeconds is the newest segment's age (-1: none).
	CheckpointAgeSeconds int64 `json:"checkpointAgeSeconds"`
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
