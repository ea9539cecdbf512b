package store

import (
	"bytes"
	"container/list"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/obs"
	"viewseeker/internal/retry"
)

// Cache is a fingerprint-addressed store of offline versions with an
// in-memory LRU front and an optional on-disk snapshot backend. All
// methods are safe for concurrent use. Entries are immutable once stored
// and handed out by reference — sessions overlay them copy-on-write, never
// write them — and invalidation is purely by addressing (any input change
// produces a different fingerprint), so there is no explicit invalidation
// API.
//
// Failure semantics: snapshot writes retry on a bounded backoff schedule;
// exhaustion marks the cache Degraded and keeps the in-memory entry — the
// cache degrades to memory-only rather than failing sessions. The next
// successful snapshot write clears the flag.
type Cache struct {
	mu   sync.Mutex
	cap  int
	dir  string // "" = memory only
	fs   faultfs.FS
	ll   *list.List
	byFP map[string]*list.Element

	policy   retry.Policy
	degraded atomic.Bool

	hits, misses, evictions int64

	// Metric handles, nil until Instrument is called; every use is
	// nil-safe, so an uninstrumented cache pays only nil checks.
	mHits, mMisses, mEvictions    *obs.Counter
	mSnapBytes                    *obs.Counter
	mDegradedTransitions          *obs.Counter
	mRetryBackoffs, mRetryExhaust *obs.Counter
	mEntries, mDegraded           *obs.Gauge
	mSnapSeconds                  *obs.Histogram
}

type cacheEntry struct {
	fp  string
	res *OfflineResult
}

// DefaultCapacity is the in-memory LRU size used when a caller passes
// capacity <= 0: entries are a few MB each at typical view-space sizes, so
// a few dozen hot (table, query) pairs stay resident — one entry each.
const DefaultCapacity = 32

// NewCache returns a memory-only cache holding at most capacity entries
// (<= 0 selects DefaultCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap: capacity, fs: faultfs.OS{}, policy: retry.Default(),
		ll: list.New(), byFP: make(map[string]*list.Element),
	}
}

// Open returns a cache whose entries are additionally snapshotted under
// dir (one file per fingerprint), so a restarted process warms from disk:
// an LRU-evicted or not-yet-loaded entry is transparently reloaded on Get.
// The directory is created if missing.
func Open(dir string, capacity int) (*Cache, error) {
	return OpenFS(faultfs.OS{}, dir, capacity)
}

// OpenFS is Open over an explicit filesystem — the fault-injection seam.
func OpenFS(fs faultfs.FS, dir string, capacity int) (*Cache, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating cache dir: %w", err)
	}
	c := NewCache(capacity)
	c.dir = dir
	c.fs = fs
	return c, nil
}

// SetRetryPolicy replaces the snapshot-write retry schedule. Retry
// counters installed by Instrument survive the swap.
func (c *Cache) SetRetryPolicy(p retry.Policy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.policy = p
}

// Instrument registers the cache's metrics against reg (see DESIGN.md §11
// for the name schema): hit/miss/eviction counters, the resident-entry
// gauge, snapshot write latency and bytes, degraded-state gauge and
// transition counter, and the shared retry counters. Call it once at
// wiring time; an uninstrumented cache records nothing.
func (c *Cache) Instrument(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mHits = reg.Counter("viewseeker_store_cache_hits_total")
	c.mMisses = reg.Counter("viewseeker_store_cache_misses_total")
	c.mEvictions = reg.Counter("viewseeker_store_cache_evictions_total")
	c.mEntries = reg.Gauge("viewseeker_store_cache_entries")
	c.mSnapBytes = reg.Counter("viewseeker_store_snapshot_bytes_total")
	c.mSnapSeconds = reg.Histogram("viewseeker_store_snapshot_write_seconds", obs.DurationBuckets)
	c.mDegraded = reg.Gauge(`viewseeker_store_degraded{component="cache"}`)
	c.mDegradedTransitions = reg.Counter(`viewseeker_store_degraded_transitions_total{component="cache"}`)
	c.mRetryBackoffs = reg.Counter("viewseeker_retry_backoffs_total")
	c.mRetryExhaust = reg.Counter("viewseeker_retry_exhausted_total")
}

// Degraded reports whether the last snapshot write exhausted its retries:
// the cache keeps serving from memory, but entries stored while the flag
// is set will not survive a restart.
func (c *Cache) Degraded() bool { return c.degraded.Load() }

// DiskBacked reports whether the cache snapshots entries to disk.
func (c *Cache) DiskBacked() bool { return c.dir != "" }

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Get returns the cached version for a fingerprint, consulting the disk
// backend on a memory miss. The version is shared: callers must not write
// it.
func (c *Cache) Get(fp string) (*OfflineResult, bool) {
	c.mu.Lock()
	if el, ok := c.byFP[fp]; ok {
		c.ll.MoveToFront(el)
		res := el.Value.(*cacheEntry).res
		c.hits++
		c.mHits.Inc()
		c.mu.Unlock()
		return res, true
	}
	c.mu.Unlock()
	// Disk load happens outside the lock: decoding a snapshot is slow
	// relative to a map hit and must not serialise unrelated sessions.
	if c.dir != "" {
		if res, err := readSnapshot(c.fs, c.snapshotPath(fp), fp); err == nil {
			c.mu.Lock()
			c.insert(fp, res)
			c.hits++
			c.mHits.Inc()
			c.mu.Unlock()
			return res, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mMisses.Inc()
	c.mu.Unlock()
	return nil, false
}

// Put stores a version, which nobody may write afterwards. It is
// snapshotted to disk when a backend is configured, and may evict the
// least-recently-used entry from memory (never from disk). A disk write
// failure is retried on the cache's backoff schedule; exhaustion leaves
// the memory entry in place, marks the cache Degraded, and returns the
// error for logging — callers may ignore it, the cache keeps serving
// memory-only.
func (c *Cache) Put(fp string, res *OfflineResult) error {
	if err := res.validate(); err != nil {
		return err
	}
	c.mu.Lock()
	c.insert(fp, res)
	policy := c.policy
	// Counters ride the policy copy so a SetRetryPolicy after Instrument
	// cannot silently disconnect retry accounting.
	policy.Backoffs = c.mRetryBackoffs
	policy.Exhausted = c.mRetryExhaust
	c.mu.Unlock()
	if c.dir != "" {
		start := time.Now()
		var written int64
		err := policy.Do(context.Background(), func() error {
			n, werr := writeSnapshot(c.fs, c.snapshotPath(fp), fp, res)
			written = n
			return werr
		})
		c.mSnapSeconds.ObserveDuration(time.Since(start))
		if err != nil {
			// Swap so a true→true rewrite does not recount: the transition
			// counter tracks distinct entries into degraded mode.
			if !c.degraded.Swap(true) {
				c.mDegradedTransitions.Inc()
			}
			c.mDegraded.Set(1)
			return fmt.Errorf("store: writing snapshot: %w", err)
		}
		c.mSnapBytes.Add(written)
		c.degraded.Store(false)
		c.mDegraded.Set(0)
	}
	return nil
}

// insert adds or refreshes an entry; callers hold c.mu.
func (c *Cache) insert(fp string, res *OfflineResult) {
	if el, ok := c.byFP[fp]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.byFP[fp] = c.ll.PushFront(&cacheEntry{fp: fp, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byFP, last.Value.(*cacheEntry).fp)
		c.evictions++
		c.mEvictions.Inc()
	}
	c.mEntries.Set(int64(c.ll.Len()))
}

func (c *Cache) snapshotPath(fp string) string {
	return filepath.Join(c.dir, fp+".vscache")
}

// snapshot is the gob wire format of one disk entry, following the
// internal/dataset binary conventions: a version field guards decoding and
// the fingerprint is stored redundantly so a renamed or cross-copied file
// cannot serve the wrong result.
type snapshot struct {
	Version     int
	Fingerprint string
	Result      OfflineResult
}

const snapshotVersion = 1

// writeSnapshot encodes one entry — its target subset inline, as the
// wire form — and publishes it atomically, returning the bytes written.
func writeSnapshot(fs faultfs.FS, path, fp string, res *OfflineResult) (int64, error) {
	var target, buf bytes.Buffer
	if err := dataset.WriteBinary(res.target, &target); err != nil {
		return 0, err
	}
	wire := OfflineResult{Specs: res.Specs, Names: res.Names, Rows: res.Rows, Exact: res.Exact, Target: target.Bytes()}
	if err := gob.NewEncoder(&buf).Encode(snapshot{Version: snapshotVersion, Fingerprint: fp, Result: wire}); err != nil {
		return 0, err
	}
	return int64(buf.Len()), faultfs.WriteFileAtomic(fs, path, ".vscache-*", func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
}

// readSnapshot loads and validates one disk entry, decoding its target
// once. Any failure — missing file, truncation, version skew, fingerprint
// mismatch, a missing or bad target, shape corruption — quarantines the
// file (best effort) and reports an error; the caller treats it as a miss
// and recomputes, never crashes.
func readSnapshot(fs faultfs.FS, path, fp string) (*OfflineResult, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := decodeSnapshot(f, fp)
	if err != nil {
		fs.Remove(path)
		return nil, fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
	}
	return res, nil
}

// decodeSnapshot decodes one snapshot stream addressed by fp into a
// validated version with its target decoded.
func decodeSnapshot(r io.Reader, fp string) (*OfflineResult, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, err
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("version %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Fingerprint != fp {
		return nil, fmt.Errorf("fingerprint mismatch")
	}
	res := &snap.Result
	if len(res.Target) > 0 {
		target, err := dataset.ReadBinary(bytes.NewReader(res.Target))
		if err != nil {
			return nil, err
		}
		res.target, res.Target = target, nil
	}
	if err := res.validate(); err != nil {
		return nil, err
	}
	res.gen = &genSlot{}
	return res, nil
}
