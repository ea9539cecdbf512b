package viewseeker

import (
	"context"
	"fmt"
	"sync"

	"viewseeker/internal/feature"
	"viewseeker/internal/live"
	"viewseeker/internal/sql"
	"viewseeker/internal/store"
	"viewseeker/internal/view"
)

// LiveTable is a WAL-backed appendable table: a base snapshot plus a
// durable redo log of append batches, published as immutable versions so
// readers and recommendation sessions are never invalidated mid-flight.
type LiveTable = live.Table

// LiveRecovery reports what recovering a live table found: how many
// checkpoint segments it applied, the last committed sequence, whether a
// torn tail from a crash mid-append was truncated, and how many
// already-checkpointed WAL frames were skipped.
type LiveRecovery = live.Recovery

// LiveOptions configures a live table: WAL fsync batching, append retry
// policy, and the auto-checkpoint threshold (see live.Options).
type LiveOptions = live.Options

// OpenLiveTableOptions opens (creating if needed) the write-ahead log at
// walPath and its checkpoint segment log beside it, and recovers the live
// table at its last committed version: base, extended by every checkpoint
// segment, then by the WAL's committed batches past them. base must be
// the same snapshot the log was started against. opts.SyncEvery batches
// one fsync per that many appends (<= 1 syncs every append — full
// durability), and opts.CheckpointBytes bounds recovery replay by
// periodically persisting the rows appended since the last checkpoint as
// one segment and compacting the log.
func OpenLiveTableOptions(walPath string, base *Table, opts LiveOptions) (*LiveTable, *LiveRecovery, error) {
	return live.Open(nil, walPath, base, opts)
}

// Maintained is an incrementally maintained offline result over a live
// table: the view-space bin indexes, scan statistics and utility-feature
// matrix for one exploration query, kept current as the table grows.
// Advance folds newly appended rows into the cached scans instead of
// rerunning the offline pass; NewSessionOn mints interactive sessions from
// a published version without paying the offline phase again.
//
// Maintenance is exact-only: Options.Alpha is forced to 1, because
// α-sampled matrices are tied to one session's refinement run and cannot
// be extended across appends.
//
// Every version it publishes is exactly the version Maintain — or a cold
// exact New — returns over the same table version, bit for bit: Advance
// extends the cached scans only while the appended rows leave every bin
// layout's fit unchanged, and rebuilds otherwise (see Advance). So a
// maintained session replays like a cold one at its table version.
type Maintained struct {
	mu    sync.Mutex
	lt    *LiveTable
	query string
	opts  Options
	cfg   offlineConfig

	// cur is the published offline version, gen the generator it was
	// computed on (whose scans the next Advance extends; gen.Ref is the
	// table version), and seq the live-table sequence it is current to.
	cur *store.OfflineResult
	gen *view.Generator
	seq uint64

	// suffixable marks the query row-local (non-aggregate projections plus
	// at most a WHERE filter): its result over an extended table is its
	// old result plus its result over the appended suffix, so Advance
	// evaluates it over the suffix only instead of rescanning the table.
	suffixable bool

	extended, rebuilt int
}

// rowLocal reports whether a statement's result over a prefix-extended
// table is always a prefix extension of its old result, computable from
// the appended rows alone: each output row must be a pure function of one
// input row. That is any WHERE-only projection — SELECT * or a list of
// non-aggregate expressions, with at most a WHERE clause. DISTINCT,
// aggregation, grouping, ordering and limits all let appended rows change
// or reorder earlier result rows.
func rowLocal(stmt *sql.SelectStmt) bool {
	if stmt.From == "" || stmt.Distinct || len(stmt.GroupBy) > 0 || stmt.Having != nil ||
		len(stmt.OrderBy) > 0 || stmt.Limit >= 0 {
		return false
	}
	for _, it := range stmt.Items {
		if it.Star {
			continue
		}
		if it.Expr == nil || sql.ContainsAggregate(it.Expr) {
			return false
		}
	}
	return stmt.Where == nil || !sql.ContainsAggregate(stmt.Where)
}

// Maintain runs the offline phase for query over the live table's current
// version and keeps the result for incremental maintenance. opts follows
// New, except Alpha is forced to 1 (exact) and Cache is ignored — the
// maintained state is itself the cache, addressed by the table's version.
func Maintain(lt *LiveTable, query string, opts Options) (*Maintained, error) {
	if lt == nil {
		return nil, fmt.Errorf("viewseeker: nil live table")
	}
	opts.Alpha = 1
	opts.Cache = nil
	cfg, err := resolveOffline(opts)
	if err != nil {
		return nil, err
	}
	m := &Maintained{lt: lt, query: query, opts: opts, cfg: cfg}
	if stmt, perr := sql.Parse(query); perr == nil {
		m.suffixable = rowLocal(stmt)
	}
	ref, seq := lt.Snapshot()
	if err := m.rebuild(ref, seq); err != nil {
		return nil, err
	}
	return m, nil
}

// rebuild recomputes the offline state from scratch over ref (the fallback
// path, and the initial build). Caller holds no lock or the lock.
func (m *Maintained) rebuild(ref *Table, seq uint64) error {
	v, gen, err := buildVersion(context.Background(), ref, m.query, m.cfg, m.opts.Workers)
	if err != nil {
		return err
	}
	m.cur, m.gen, m.seq = v, gen, seq
	return nil
}

// Advance folds rows appended since the last Advance (or Maintain) into
// the maintained state, returning whether anything changed. The fast path
// extends the cached bin indexes, statistics and feature matrix with only
// the appended suffix — bit-identical to a recomputation because the
// floating-point accumulation order is preserved. It applies when the
// query is row-local (rowLocal), so its result over the appended rows is
// exactly what the new data adds, and the appended rows leave every bin
// layout's fit unchanged: no numeric value past a dimension's fitted
// minimum or maximum and no new category. Every other Advance rebuilds, refitting
// the layouts to the current table. Either way the result is what
// Maintain over the current table would produce.
//
// Refits stay rare on a stationary stream: a batch forces one only by
// holding a new column extreme, so their expected cost per append is
// O(batch) amortised.
func (m *Maintained) Advance() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	newRef, newSeq := m.lt.Snapshot()
	if newSeq == m.seq {
		return false, nil
	}
	// The live table's versions form an append-only chain, so newRef is a
	// bit-exact prefix extension of the current one by construction — only
	// the target needs extension checking.
	if newTarget, ok := m.extendTarget(newRef); ok {
		if ng, ok, err := m.gen.ApplyAppend(newRef, newTarget); ok && err == nil {
			// The delta-extended generator answers every scan from its
			// seeded caches; ComputeWorkers then only reassembles the rows.
			if matrix, err := feature.ComputeWorkers(ng, m.cfg.registry, m.opts.Workers); err == nil {
				m.cur, m.gen, m.seq = newVersion(matrix, newTarget, ng), ng, newSeq
				m.extended++
				return true, nil
			}
		}
	}
	if err := m.rebuild(newRef, newSeq); err != nil {
		return false, err
	}
	m.rebuilt++
	return true, nil
}

// extendTarget produces the exploration query's result over newRef as an
// extension of the old result, by running a row-local query over only
// the appended suffix — O(appended) instead of O(table). ok=false sends
// Advance to a rebuild: any other query (ORDER BY, LIMIT, DISTINCT,
// aggregation) may reorder or rewrite earlier result rows, so it has no
// delta path.
func (m *Maintained) extendTarget(newRef *Table) (*Table, bool) {
	if !m.suffixable {
		return nil, false
	}
	from, to := m.gen.Ref.NumRows(), newRef.NumRows()
	suffix := newRef.Subset(newRef.Name, seqRange(from, to))
	matches, err := Query(suffix, m.query)
	if err != nil {
		return nil, false
	}
	rows := make([][]Value, matches.NumRows())
	for i := range rows {
		rows[i] = matches.Row(i)
	}
	newTarget, err := m.cur.TargetTable().WithAppended(rows)
	if err != nil {
		return nil, false
	}
	return newTarget, true
}

func seqRange(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// OfflineVersion is one immutable offline version: the view space,
// utility-feature rows, target subset and view generator of one (table
// version, query, α, space config), shared read-only by every session
// minted from it.
type OfflineVersion = store.OfflineResult

// Version returns the current offline version, the table version it was
// computed over and the live-table sequence that table version has.
func (m *Maintained) Version() (*OfflineVersion, *Table, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur, m.gen.Ref, m.seq
}

// NewSessionOn mints an interactive session on a version this Maintained
// published and the table version it was computed over (Version), however
// far the table has advanced since: a fresh session over exactly that
// version, which is how a journalled session is replayed bit-identically
// after eviction. The offline phase is already paid, so this is the warm
// path regardless of any Options.Cache, and later Advances never mutate
// the session. opts supplies the per-session interaction knobs — K,
// Strategy, Seed, Workers, RefineHook; knobs that shape the offline state
// itself (bin counts, features, alpha) come from the Maintained and are
// ignored here.
func (m *Maintained) NewSessionOn(ref *Table, v *OfflineVersion, opts Options) (*Seeker, error) {
	return sessionOn(ref, v, opts, m.cfg, true)
}

// Seq returns the live-table sequence the maintained state is current to.
func (m *Maintained) Seq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// MaintainedStats breaks down how Advances were served.
type MaintainedStats struct {
	// Extended counts Advances that took the incremental path.
	Extended int
	// Rebuilt counts rebuilds: appends that changed a layout's fit,
	// non-row-local queries and extension failures. The initial Maintain
	// build is not counted.
	Rebuilt int
}

// Stats reports how many Advances took the incremental path versus fell
// back to a full rebuild.
func (m *Maintained) Stats() MaintainedStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MaintainedStats{Extended: m.extended, Rebuilt: m.rebuilt}
}
