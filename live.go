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

// LiveRecovery reports what replaying a live table's write-ahead log
// found: the last committed sequence, whether a torn tail from a crash
// mid-append was truncated, and how many already-checkpointed frames were
// skipped.
type LiveRecovery = live.Recovery

// LiveOptions configures a live table: WAL fsync batching, append retry
// policy, and the auto-checkpoint threshold (see live.Options).
type LiveOptions = live.Options

// OpenLiveTable opens (creating if needed) the write-ahead log at walPath
// and replays its committed batches over base (or over the newest
// checkpoint snapshot, when one exists), returning the live table at its
// last committed version. base must be the same snapshot the log was
// started against. syncEvery batches one fsync per that many appends
// (<= 1 syncs every append — full durability).
func OpenLiveTable(walPath string, base *Table, syncEvery int) (*LiveTable, *LiveRecovery, error) {
	return OpenLiveTableOptions(walPath, base, LiveOptions{SyncEvery: syncEvery})
}

// OpenLiveTableOptions is OpenLiveTable with the full option set —
// notably CheckpointBytes, which bounds recovery replay by periodically
// persisting the current version as a snapshot and compacting the log.
func OpenLiveTableOptions(walPath string, base *Table, opts LiveOptions) (*LiveTable, *LiveRecovery, error) {
	return live.Open(nil, walPath, base, opts)
}

// Maintained is an incrementally maintained offline result over a live
// table: the view-space bin indexes, scan statistics and utility-feature
// matrix for one exploration query, kept current as the table grows.
// Advance folds newly appended rows into the cached scans (bit-identical
// to recomputing from scratch, at a fraction of the cost) instead of
// rerunning the offline pass; NewSession mints interactive sessions from
// the current state without paying the offline phase again.
//
// Maintenance is exact-only: Options.Alpha is forced to 1, because
// α-sampled matrices are tied to one session's refinement run and cannot
// be extended across appends.
//
// Bin layouts are pinned to the table Maintain saw: incremental updates
// never re-fit bin boundaries (that is what makes them bit-identical to a
// pinned-layout recomputation), so appended values outside a numeric
// dimension's original range fall out of its histogram. Advance tracks
// that escape rate per layout and, when any layout's cumulative rate
// crosses Options.DriftThreshold, rebuilds from scratch — re-fitting
// every layout to the current data (counted in Stats.DriftRebuilds).
type Maintained struct {
	mu       sync.Mutex
	lt       *LiveTable
	query    string
	opts     Options
	registry *feature.Registry
	spaceCfg view.SpaceConfig
	// driftThreshold is the resolved Options.DriftThreshold (< 0 disabled).
	driftThreshold float64

	// cur is the published offline version (it owns the generator whose
	// pinned-layout scans the next Advance extends) and seq the live-table
	// sequence it is current to.
	cur *store.OfflineResult
	seq uint64

	// suffixable marks the query row-local (non-aggregate projections plus
	// at most a WHERE filter): its result over an extended table is its
	// old result plus its result over the appended suffix, so Advance
	// evaluates it over the suffix only instead of rescanning the table.
	suffixable bool

	extended, rebuilt, driftRebuilds int
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
	registry, spaceCfg, _, err := offlineConfig(opts)
	if err != nil {
		return nil, err
	}
	m := &Maintained{lt: lt, query: query, opts: opts, registry: registry, spaceCfg: spaceCfg}
	m.driftThreshold = opts.DriftThreshold
	if m.driftThreshold == 0 {
		m.driftThreshold = DefaultDriftThreshold
	}
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
// path, and the initial build): layouts are re-fit to ref, so accumulated
// drift resets to zero. Callers count the rebuild against the right
// counter. Caller holds no lock or the lock.
func (m *Maintained) rebuild(ref *Table, seq uint64) error {
	target, err := runExplorationQuery(context.Background(), ref, m.query)
	if err != nil {
		return err
	}
	gen, err := view.NewGenerator(ref, target, m.spaceCfg)
	if err != nil {
		return err
	}
	matrix, err := feature.ComputeWorkers(gen, m.registry, m.opts.Workers)
	if err != nil {
		return err
	}
	m.cur, m.seq = store.NewVersion(matrix, target, gen), seq
	return nil
}

// genOf returns a maintained version's generator, which the version owns.
func genOf(v *OfflineVersion) *view.Generator {
	g, _ := v.Generator(nil)
	return g
}

// Advance folds rows appended since the last Advance (or Maintain) into
// the maintained state, returning whether anything changed. The fast path
// extends the cached bin indexes, statistics and feature matrix with only
// the appended suffix — bit-identical to a recomputation because layouts
// stay pinned and the floating-point accumulation order is preserved. It
// applies when re-running the exploration query only appended result rows
// (verified with Table.IsPrefixOf); a query whose result was reordered or
// shrunk by the new data falls back to a full rebuild. Rebuilds also cover
// appends that drift a measure's accumulation shift (an all-NULL column
// gaining its first value).
//
// Distribution drift forces the other kind of rebuild: when the
// cumulative fraction of appended values escaping any pinned bin layout
// reaches the configured threshold, Advance discards the extension and
// rebuilds from scratch, re-fitting every layout to the current data
// (Stats.DriftRebuilds). The rebuilt state is exactly what Maintain over
// the current table would produce; drift accumulation restarts at zero.
func (m *Maintained) Advance() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	newRef, newSeq := m.lt.Snapshot()
	if newSeq == m.seq {
		return false, nil
	}
	// The live table's versions form a copy-on-append chain, so newRef is a
	// bit-exact prefix extension of the current one by construction — only
	// the target needs extension checking.
	if newTarget, ok := m.extendTarget(newRef); ok {
		if ng, err := genOf(m.cur).ApplyAppend(newRef, newTarget); err == nil {
			if m.driftThreshold >= 0 && ng.MaxDriftRate() >= m.driftThreshold {
				// The pinned layouts no longer represent the data: re-fit.
				if err := m.rebuild(newRef, newSeq); err != nil {
					return false, err
				}
				m.driftRebuilds++
				return true, nil
			}
			// The delta-extended generator answers every scan from its
			// seeded caches; Compute then only reassembles per-view vectors.
			if matrix, err := feature.ComputeWorkers(ng, m.registry, m.opts.Workers); err == nil {
				m.cur, m.seq = store.NewVersion(matrix, newTarget, ng), newSeq
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
// extension of the old result, or ok=false when the delta path does not
// apply. A row-local query runs over only the appended suffix — O(appended)
// instead of O(table); anything else reruns in full and verifies that the
// new data only appended result rows (Table.IsPrefixOf).
func (m *Maintained) extendTarget(newRef *Table) (*Table, bool) {
	if m.suffixable {
		from, to := genOf(m.cur).Ref.NumRows(), newRef.NumRows()
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
	newTarget, err := runExplorationQuery(context.Background(), newRef, m.query)
	if err != nil || !m.cur.TargetTable().IsPrefixOf(newTarget) {
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

// NewSession mints an interactive session from the maintained state —
// the offline phase is already paid, so this is the warm path regardless
// of any Options.Cache. The session keeps the version it was built on:
// later Advances never mutate it.
func (m *Maintained) NewSession() (*Seeker, error) { return m.NewSessionWith(m.opts) }

// NewSessionWith is NewSession with per-session interaction knobs — K, M,
// Strategy, Seed, Workers, RefineHook — so one maintained offline state
// can serve sessions with different recommendation sizes or query
// strategies. Knobs that shape the offline state itself (aggregates, bin
// counts, features, alpha) come from the Maintained and are ignored here.
func (m *Maintained) NewSessionWith(opts Options) (*Seeker, error) {
	v, _ := m.Version()
	return m.NewSessionOn(v, opts)
}

// OfflineVersion is one immutable offline version: the view space,
// utility-feature rows, target subset and view generator of one (table
// version, query, α, space config), shared read-only by every session
// minted from it.
type OfflineVersion = store.OfflineResult

// Version returns the current offline version and the live-table
// sequence it is current to.
func (m *Maintained) Version() (*OfflineVersion, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur, m.seq
}

// NewSessionOn is NewSessionWith on a version this Maintained published
// (Version), however far the table has advanced since: a fresh session
// over exactly that version, which is how a journalled session is
// replayed bit-identically after eviction.
func (m *Maintained) NewSessionOn(v *OfflineVersion, opts Options) (*Seeker, error) {
	return sessionOn(genOf(v).Ref, v.TargetTable(), v, opts, m.registry, m.spaceCfg, true)
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
	// Rebuilt counts fallback rebuilds (non-extendable query results,
	// shift drift, extension failures). The initial Maintain build is not
	// counted.
	Rebuilt int
	// DriftRebuilds counts rebuilds triggered by the layout drift
	// threshold — appended data escaping the pinned bin layouts.
	DriftRebuilds int
}

// Stats reports how many Advances took the incremental path versus fell
// back to a full rebuild, and how many rebuilds were drift-triggered.
func (m *Maintained) Stats() MaintainedStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MaintainedStats{Extended: m.extended, Rebuilt: m.rebuilt, DriftRebuilds: m.driftRebuilds}
}

// DriftRate returns the highest cumulative out-of-range rate across the
// pinned bin layouts — how much of the appended data the maintained
// histograms are currently dropping (0 right after a build or re-fit).
func (m *Maintained) DriftRate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return genOf(m.cur).MaxDriftRate()
}

// Matrix returns the current version's feature matrix (read-only: its
// rows are the version's).
func (m *Maintained) Matrix() *feature.Matrix {
	v, _ := m.Version()
	matrix, _ := feature.Rebuild(genOf(v), m.registry, v.Specs, v.Rows, v.Exact)
	return matrix
}
