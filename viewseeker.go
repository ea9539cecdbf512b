// Package viewseeker is an interactive view recommendation library: given
// a dataset and a query that selects the subset a user is exploring, it
// enumerates every (dimension, measure, aggregate) view, learns the user's
// utility function from simple 0–1 interest labels via active learning,
// and recommends the top-k views — a Go implementation of the ViewSeeker
// system (Zhang, Ge, Chrysanthis, Sharaf; EDBT/ICDT BigVis 2019).
//
// Typical use:
//
//	table, _ := viewseeker.LoadCSV("patients.csv")
//	viewseeker.AssignRoles(table, dims, measures)
//	s, _ := viewseeker.New(table, "SELECT * FROM patients WHERE age > 80", viewseeker.Options{K: 5})
//	for !satisfied {
//		v, _ := s.Next()
//		s.Feedback(v.Index, askUser(s.Render(v.Index)))
//		show(s.TopK())
//	}
package viewseeker

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"viewseeker/internal/active"
	"viewseeker/internal/core"
	"viewseeker/internal/dataset"
	"viewseeker/internal/diversify"
	"viewseeker/internal/explain"
	"viewseeker/internal/feature"
	"viewseeker/internal/obs"
	"viewseeker/internal/sql"
	"viewseeker/internal/store"
	"viewseeker/internal/view"
)

// Re-exported substrate types. Aliases keep one canonical implementation
// in the internal packages while letting library users name the types.
type (
	// Table is an in-memory columnar table with dimension/measure roles.
	Table = dataset.Table
	// Schema describes a table's columns.
	Schema = dataset.Schema
	// ColumnDef describes one column.
	ColumnDef = dataset.ColumnDef
	// Value is the dynamically typed scalar used at row level.
	Value = dataset.Value
	// Spec identifies one view: (dimension, measure, aggregate, bins).
	Spec = view.Spec
	// Pair is a target view with its aligned reference view.
	Pair = view.Pair
	// Histogram is one executed view.
	Histogram = view.Histogram
	// Feature is one utility component, for custom registrations.
	Feature = feature.Feature
	// Catalog maps table names to tables for SQL access.
	Catalog = sql.Catalog
	// Cache is a content-addressed store of offline-phase results (view
	// space plus feature matrix), shared across sessions via Options.Cache.
	Cache = store.Cache
)

// NewCache returns an in-memory offline-result cache holding at most
// capacity entries (<= 0 selects the default).
func NewCache(capacity int) *Cache { return store.NewCache(capacity) }

// OpenCache returns an offline-result cache whose entries are additionally
// snapshotted under dir, so a restarted process warms from disk.
func OpenCache(dir string, capacity int) (*Cache, error) { return store.Open(dir, capacity) }

// HashTable returns the content hash of a table as used by the offline
// cache's fingerprints. Callers that host long-lived immutable tables (the
// HTTP server does) can compute it once and pass it via Options.RefHash so
// that every warm session skips rehashing the full dataset.
func HashTable(t *Table) string { return store.HashTable(t) }

// Role constants for AssignRoles.
const (
	RoleDimension = dataset.RoleDimension
	RoleMeasure   = dataset.RoleMeasure
)

// LoadCSV reads a CSV file into a table (kinds inferred from the data).
// When a .schema.json sidecar written by SaveCSVWithSchema sits next to
// the file, its dimension/measure roles are applied automatically.
func LoadCSV(path string) (*Table, error) { return dataset.ReadCSVWithSchema(path) }

// SaveCSVWithSchema writes a table to CSV plus a .schema.json sidecar
// preserving its dimension/measure roles, so LoadCSV round-trips fully.
func SaveCSVWithSchema(t *Table, path string) error { return dataset.WriteCSVWithSchema(t, path) }

// ReadCSV reads CSV from a reader into a table named name.
func ReadCSV(name string, r io.Reader) (*Table, error) { return dataset.ReadCSV(name, r) }

// SaveCSV writes a table to a CSV file.
func SaveCSV(t *Table, path string) error { return dataset.WriteCSVFile(t, path) }

// AssignRoles marks columns as dimensions and measures; only such columns
// enter the view space.
func AssignRoles(t *Table, dims, measures []string) error {
	return dataset.AssignRoles(t, dims, measures)
}

// NewCatalog returns an empty SQL catalog.
func NewCatalog() *Catalog { return sql.NewCatalog() }

// Query runs one SQL statement against a single table.
func Query(t *Table, query string) (*Table, error) {
	c := sql.NewCatalog()
	c.Register(t)
	return c.Query(query)
}

// StandardFeatureNames returns the eight built-in utility feature names in
// their canonical order: KL, EMD, L1, L2, MAX_DIFF, USABILITY, ACCURACY,
// P_VALUE.
func StandardFeatureNames() []string { return feature.StandardRegistry().Names() }

// StaticTopK is the classical one-shot recommender ViewSeeker improves on
// (SeeDB-style): it ranks every view by a single fixed utility feature —
// no interaction, no learning — and returns the top k. It exists both as
// a baseline for comparisons and for callers who already know their
// utility function. featureName is one of StandardFeatureNames.
func StaticTopK(table *Table, query, featureName string, k int) ([]View, error) {
	if k <= 0 {
		k = 10
	}
	target, err := runExplorationQuery(context.Background(), table, query)
	if err != nil {
		return nil, err
	}
	gen, err := view.NewGenerator(table, target, view.SpaceConfig{})
	if err != nil {
		return nil, err
	}
	registry := feature.StandardRegistry()
	fi := registry.Index(featureName)
	if fi < 0 {
		return nil, fmt.Errorf("viewseeker: unknown utility feature %q (want one of %v)",
			featureName, registry.Names())
	}
	matrix, err := feature.Compute(gen, registry)
	if err != nil {
		return nil, err
	}
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, matrix.Len())
	for i, row := range matrix.Rows {
		ss[i] = scored{i, row[fi]}
	}
	sort.SliceStable(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score > ss[b].score
		}
		return ss[a].idx < ss[b].idx
	})
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]View, k)
	for i := 0; i < k; i++ {
		out[i] = View{Index: ss[i].idx, Spec: gen.Specs()[ss[i].idx], Score: ss[i].score}
	}
	return out, nil
}

// Options configures a Seeker. The zero value follows the paper's testbed
// (Table 1) defaults.
type Options struct {
	// K is the recommendation size (default 10).
	K int
	// M is how many views each iteration presents (default 1).
	M int
	// Aggs overrides the aggregate set (default COUNT/SUM/AVG/MIN/MAX).
	Aggs []string
	// BinCounts are the bin configurations for numeric dimensions
	// (default {4}; the paper's SYN testbed uses {3, 4}).
	BinCounts []int
	// EqualDepth switches numeric dimensions to equal-depth (quantile)
	// binning, which keeps skewed dimensions readable.
	EqualDepth bool
	// Alpha < 1 enables the optimisation: the offline pass computes
	// utility features on an Alpha fraction of the data and refines
	// incrementally during the session (default 1 = exact).
	Alpha float64
	// Strategy names the main-phase query strategy: "uncertainty"
	// (default), "random", "committee" or "density".
	Strategy string
	// Seed drives the strategy's and cold start's randomness.
	Seed int64
	// ExtraFeatures appends custom utility components to the standard
	// eight (Section 3.1: "users may customise the utility features").
	ExtraFeatures []Feature
	// Quadratic additionally registers all pairwise products of the base
	// features (standard + extra), letting the linear estimator capture
	// multiplicative utility functions such as u* = EMD·KL that Eq. 4's
	// linear form cannot represent. It grows the feature count from n to
	// n + n(n+1)/2.
	Quadratic bool
	// Workers bounds the parallelism of the offline phase (layout scans
	// and per-view feature vectors) and of per-iteration incremental
	// refinement. ≤ 0 selects runtime.NumCPU(); 1 forces the sequential
	// path, which is required when ExtraFeatures closures are not safe for
	// concurrent use. Results are bit-identical across worker counts.
	Workers int
	// Cache, when non-nil, consults and fills the offline-result store: a
	// session whose fingerprint — table contents, query result contents,
	// Alpha, feature names, aggregate and bin configuration — is already
	// cached skips the offline feature pass entirely (CacheHit reports
	// which path was taken). Note that ExtraFeatures participate in the
	// fingerprint by name only: registering two different computations
	// under one name aliases their cache entries.
	Cache *Cache
	// RefHash optionally supplies a precomputed HashTable of the reference
	// table, sparing the cache lookup a full pass over the dataset. Only
	// set it for tables that have not changed since the hash was taken: a
	// stale value addresses the wrong cache entries and silently serves
	// another dataset's view space. Ignored when Cache is nil.
	RefHash string
	// RefineHook, when non-nil, is called once per feature row the
	// incremental refiner refreshes (with the view index). It only fires
	// for α-sampled sessions, runs on the refinement worker goroutines
	// (make it concurrency-safe unless Workers == 1), and exists so that
	// cancellation tests and latency instrumentation can observe the
	// refinement work a request triggers.
	RefineHook func(viewIdx int)
	// DriftThreshold governs Maintained.Advance's automatic layout re-fit:
	// when the cumulative out-of-range rate of any pinned bin layout —
	// appended values a layout cannot place, tracked per layout across
	// appends — reaches it, Advance rebuilds the offline state from
	// scratch, re-fitting every layout to the current data. 0 selects
	// DefaultDriftThreshold; negative disables drift rebuilds (stale
	// layouts keep dropping escaped values into bin -1 forever). Only
	// Maintain reads it.
	DriftThreshold float64
}

// DefaultDriftThreshold is the fraction of appended values escaping a
// pinned bin layout that triggers an automatic re-fit (Options.
// DriftThreshold = 0). A quarter of new data outside the histograms means
// the maintained scans have stopped representing the live distribution.
const DefaultDriftThreshold = 0.25

// View is one recommended or presented view with its current score.
type View struct {
	Index int
	Spec  Spec
	Score float64
}

// Seeker is an interactive recommendation session over one dataset and
// one exploration query. It references an immutable offline version
// shared with every session over the same (table version, query, α,
// space config) and owns only its overlay on it: its matrix's row headers
// and exactness flags, the rows refinement replaced, and its estimator.
type Seeker struct {
	ref      *Table
	target   *Table
	off      *store.OfflineResult
	registry *feature.Registry
	matrix   *feature.Matrix
	inner    *core.Seeker
	cacheHit bool

	// memTarget caches the one-time target-table estimate: the target is
	// immutable for the session's lifetime and string columns make the
	// walk O(rows).
	memTargetOnce sync.Once
	memTarget     int64

	// An exact session takes the version's generator only when a view
	// executes (Pair, Render, SQL); holding it keeps it alive.
	spaceCfg view.SpaceConfig
	genOnce  sync.Once
	gen      *view.Generator
	genErr   error
}

// generator returns the version's generator, taken on first use.
func (s *Seeker) generator() (*view.Generator, error) {
	s.genOnce.Do(func() {
		s.gen, s.genErr = s.off.Generator(func() (*view.Generator, error) {
			return view.NewGenerator(s.ref, s.target, s.spaceCfg)
		})
	})
	return s.gen, s.genErr
}

// offlineConfig resolves the options that shape the offline state: the
// feature registry, the view-space configuration and their cache-key
// fields.
func offlineConfig(opts Options) (registry *feature.Registry, cfg view.SpaceConfig, key store.Key, err error) {
	registry = feature.StandardRegistry()
	for _, f := range opts.ExtraFeatures {
		if err = registry.Add(f); err != nil {
			return
		}
	}
	if opts.Quadratic {
		if err = feature.AddQuadratic(registry); err != nil {
			return
		}
	}
	cfg = view.SpaceConfig{Aggs: opts.Aggs, BinCounts: opts.BinCounts, EqualDepth: opts.EqualDepth}.Normalized()
	key = store.Key{
		Alpha: normalizeAlpha(opts.Alpha), Features: registry.Names(),
		Aggs: cfg.Aggs, BinCounts: cfg.BinCounts, EqualDepth: cfg.EqualDepth,
	}
	return registry, cfg, key, nil
}

func normalizeAlpha(a float64) float64 {
	if a <= 0 || a > 1 {
		return 1
	}
	return a
}

// runExplorationQuery executes the session's query and names the subset.
// The context carries only instrumentation (the query executes in-memory
// and is not cancellable mid-scan).
func runExplorationQuery(ctx context.Context, table *Table, query string) (*Table, error) {
	_, span := obs.StartSpan(ctx, "offline.query")
	defer span.End()
	start := time.Now()
	target, err := Query(table, query)
	if err != nil {
		return nil, fmt.Errorf("viewseeker: exploration query: %w", err)
	}
	if target.NumRows() == 0 {
		return nil, fmt.Errorf("viewseeker: exploration query selected no rows")
	}
	obs.RegistryFrom(ctx).Histogram("viewseeker_offline_query_seconds", obs.DurationBuckets).
		ObserveDuration(time.Since(start))
	target.Name = table.Name + "_dq"
	return target, nil
}

// New builds a session: query carves the exploration subset DQ out of the
// table, the view space is enumerated over the table's dimension/measure
// roles, and the offline feature pass runs (on an α-sample when
// Options.Alpha < 1).
//
// With Options.Cache set, the session is first looked up by (reference
// contents, query text, configuration); such entries carry the serialised
// target subset alongside the matrix, so a warm start skips query
// execution as well as the offline pass.
func New(table *Table, query string, opts Options) (*Seeker, error) {
	return NewCtx(context.Background(), table, query, opts)
}

// NewCtx is New under a context: the offline feature pass — the dominant
// cost of session construction — checks for cancellation between work
// items (layout scans, per-view feature vectors), so a disconnected client
// or an expired deadline stops the scan within one item per worker instead
// of burning cores on a session nobody is waiting for. A cancelled
// construction returns the context's error and no session; the shared
// cache is never filled with partial results.
func NewCtx(ctx context.Context, table *Table, query string, opts Options) (*Seeker, error) {
	if table == nil {
		return nil, fmt.Errorf("viewseeker: nil table")
	}
	// The offline umbrella span: everything below — query execution, cache
	// probes, layout warming, the feature pass — nests under it when the
	// context carries a tracer.
	ctx, span := obs.StartSpan(ctx, "offline")
	defer span.End()
	if opts.Cache == nil {
		target, err := runExplorationQuery(ctx, table, query)
		if err != nil {
			return nil, err
		}
		return NewFromTablesCtx(ctx, table, target, opts)
	}
	registry, spaceCfg, key, err := offlineConfig(opts)
	if err != nil {
		return nil, err
	}
	if opts.RefHash == "" {
		opts.RefHash = store.HashTable(table)
	}
	key.RefHash, key.Query = opts.RefHash, query
	queryFP := key.Fingerprint()
	if v, ok := opts.Cache.Get(queryFP); ok && v.TargetTable() != nil {
		if s, err := sessionOn(table, v.TargetTable(), v, opts, registry, spaceCfg, true); err == nil {
			obs.RegistryFrom(ctx).Counter(`viewseeker_offline_sessions_total{result="warm"}`).Inc()
			return s, nil
		}
		// A mismatched entry degrades to recomputation.
	}
	target, err := runExplorationQuery(ctx, table, query)
	if err != nil {
		return nil, err
	}
	s, err := NewFromTablesCtx(ctx, table, target, opts) // fills the content-addressed entry
	if err != nil {
		return nil, err
	}
	// Index the version under the query too, with the target attached, so
	// the next session over this (table, query) skips the query as well.
	_ = opts.Cache.Put(queryFP, s.off.WithTarget(target))
	return s, nil
}

// NewFromTables builds a session from an explicit reference table and
// target subset (for callers that produce DQ by other means). Cache
// entries on this path are addressed by the target subset's contents, so
// textually different queries selecting the same rows share them.
func NewFromTables(ref, target *Table, opts Options) (*Seeker, error) {
	return NewFromTablesCtx(context.Background(), ref, target, opts)
}

// NewFromTablesCtx is NewFromTables under a context, with NewCtx's
// cancellation semantics.
func NewFromTablesCtx(ctx context.Context, ref, target *Table, opts Options) (*Seeker, error) {
	if ref == nil || target == nil {
		return nil, fmt.Errorf("viewseeker: nil table")
	}
	registry, spaceCfg, key, err := offlineConfig(opts)
	if err != nil {
		return nil, err
	}

	// The offline-result cache is addressed by a fingerprint of everything
	// the matrix depends on; hashing both tables is one pass over their
	// columns — noise next to the feature computation a hit skips.
	var fingerprint string
	if opts.Cache != nil {
		key.RefHash, key.TargetHash = opts.RefHash, store.HashTable(target)
		if key.RefHash == "" {
			key.RefHash = store.HashTable(ref)
		}
		fingerprint = key.Fingerprint()
		if v, ok := opts.Cache.Get(fingerprint); ok {
			if s, err := sessionOn(ref, target, v, opts, registry, spaceCfg, true); err == nil {
				obs.RegistryFrom(ctx).Counter(`viewseeker_offline_sessions_total{result="warm"}`).Inc()
				return s, nil
			}
			// A rebuild error means the entry does not fit this session
			// (fingerprint collision or corruption): fall through and
			// recompute rather than fail.
		}
	}
	gen, err := view.NewGenerator(ref, target, spaceCfg)
	if err != nil {
		return nil, err
	}
	// ComputePartial at α = 1 is the exact pass.
	matrix, err := feature.ComputePartialWorkersCtx(ctx, gen, registry, key.Alpha, opts.Workers)
	if err != nil {
		return nil, err
	}
	obs.RegistryFrom(ctx).Counter(`viewseeker_offline_sessions_total{result="cold"}`).Inc()
	v := store.NewVersion(matrix, nil, nil)
	// Lend this pass's warm scans to the version's other sessions.
	v.Generator(func() (*view.Generator, error) { return gen, nil })
	if opts.Cache != nil {
		// Best-effort fill: a failed snapshot write degrades the cache
		// to memory-only, it never fails the session.
		_ = opts.Cache.Put(fingerprint, v)
	}
	return sessionOn(ref, target, v, opts, registry, spaceCfg, false)
}

// sessionOn mints a session over the offline version v — the one path
// behind cold, cache-warmed and maintained sessions — as a copy-on-write
// overlay on v's rows (feature.Rebuild). Refining an α-sampled version
// needs its generator up front.
func sessionOn(ref, target *Table, v *store.OfflineResult, opts Options, registry *feature.Registry, spaceCfg view.SpaceConfig, cacheHit bool) (*Seeker, error) {
	s := &Seeker{ref: ref, target: target, off: v, registry: registry, cacheHit: cacheHit, spaceCfg: spaceCfg}
	withRefinement := slices.Contains(v.Exact, false)
	if withRefinement {
		if _, err := s.generator(); err != nil {
			return nil, err
		}
	}
	matrix, err := feature.Rebuild(s.gen, registry, v.Specs, v.Rows, v.Exact)
	if err != nil {
		return nil, err
	}
	var strategy active.Strategy
	switch opts.Strategy {
	case "", "uncertainty":
		strategy = &active.Uncertainty{}
	case "random":
		strategy = &active.Random{Seed: opts.Seed}
	case "committee":
		strategy = &active.Committee{Seed: opts.Seed}
	case "density":
		strategy = &active.DensityWeighted{}
	default:
		return nil, fmt.Errorf("viewseeker: unknown strategy %q", opts.Strategy)
	}
	s.matrix = matrix
	s.inner, err = core.NewSeeker(matrix, core.Config{
		K: opts.K, M: opts.M, Strategy: strategy, ColdStartSeed: opts.Seed,
		Workers: opts.Workers, RefineHook: opts.RefineHook,
	}, withRefinement)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// CacheHit reports whether this session's offline phase was served from
// Options.Cache instead of being computed.
func (s *Seeker) CacheHit() bool { return s.cacheHit }

// sessionOverheadBytes is the fixed per-session charge in MemoryBytes: the
// struct headers, small maps and slices the itemised estimates below do
// not walk (seeker, registry, strategy, refiner bookkeeping).
const sessionOverheadBytes = 16 << 10

// MemoryBytes estimates the session's resident heap bytes — the quantity
// the server's eviction budget (-session-budget-bytes) accounts per
// session (DESIGN.md §16). It charges everything the session references
// except the shared reference table: the target subset's columns, the
// feature matrix, the view generator's scan caches (once taken; the
// estimate grows as views are rendered) and the estimator state, plus a
// fixed overhead — the offline version's share in full, per session.
//
// The result is an estimate of the dominant allocations, not a heap
// census; a budget_churn run of benchmark/run.sh plus the
// viewseeker_session_resident_bytes gauge calibrate it against real RSS
// (README "Scaling & capacity planning").
// Call it under the same serialisation as the session's other operations
// — it reads the lazily built generator.
func (s *Seeker) MemoryBytes() int64 {
	b := int64(sessionOverheadBytes) + s.inner.MemoryBytes() + s.matrix.MemoryBytes()
	s.memTargetOnce.Do(func() { s.memTarget = s.target.MemoryBytes() })
	b += s.memTarget
	if s.gen != nil {
		b += s.gen.MemoryBytes()
	}
	return b
}

// Reference returns the full dataset DR.
func (s *Seeker) Reference() *Table { return s.ref }

// Target returns the exploration subset DQ.
func (s *Seeker) Target() *Table { return s.target }

// NumViews returns the view-space size.
func (s *Seeker) NumViews() int { return s.matrix.Len() }

// Specs returns the enumerated view space.
func (s *Seeker) Specs() []Spec { return s.matrix.Specs }

// FeatureNames returns the active utility feature names, in weight order.
func (s *Seeker) FeatureNames() []string { return s.registry.Names() }

// Next returns the single next view to label. It is a convenience wrapper
// around NextViews for the default M = 1.
func (s *Seeker) Next() (View, error) {
	vs, err := s.NextViews()
	if err != nil {
		return View{}, err
	}
	if len(vs) == 0 {
		return View{}, fmt.Errorf("viewseeker: every view is labelled")
	}
	return vs[0], nil
}

// NextViews returns the next batch of views to label (cold start first,
// then the configured query strategy). Empty when everything is labelled.
func (s *Seeker) NextViews() ([]View, error) {
	return s.NextViewsCtx(context.Background())
}

// NextViewsCtx is NextViews with the selection timed against the context's
// observability registry and tracer (see internal/obs); selection itself
// is pure in-memory ranking and does not block on the context.
func (s *Seeker) NextViewsCtx(ctx context.Context) ([]View, error) {
	idxs, err := s.inner.NextViewsCtx(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]View, len(idxs))
	for i, idx := range idxs {
		out[i] = s.viewAt(idx)
	}
	return out, nil
}

func (s *Seeker) viewAt(idx int) View {
	return View{Index: idx, Spec: s.matrix.Specs[idx], Score: s.inner.Predict(idx)}
}

// Feedback records the user's 0–1 interest label for a view and refits
// the utility estimator.
func (s *Seeker) Feedback(index int, label float64) error {
	return s.inner.Feedback(index, label)
}

// FeedbackCtx is Feedback under a context: cancellation aborts only the
// optional incremental refinement (a done context on entry records
// nothing); the label and the estimator refit always land together, so the
// session never holds a half-applied label. See core.Seeker.FeedbackCtx.
func (s *Seeker) FeedbackCtx(ctx context.Context, index int, label float64) error {
	return s.inner.FeedbackCtx(ctx, index, label)
}

// NumLabels returns how many labels have been given.
func (s *Seeker) NumLabels() int { return s.inner.NumLabels() }

// TopK returns the current top-k recommendation, best first.
func (s *Seeker) TopK() []View {
	idxs := s.inner.TopK()
	out := make([]View, len(idxs))
	for i, idx := range idxs {
		out[i] = s.viewAt(idx)
	}
	return out
}

// TopKDiverse returns a diversity-aware top-k (DiVE-style): views are
// selected by Maximal Marginal Relevance, trading predicted utility
// against similarity to already-selected views. lambda = 1 reproduces
// TopK; lower values diversify harder.
func (s *Seeker) TopKDiverse(lambda float64) ([]View, error) {
	scores := make([]float64, s.NumViews())
	for i := range scores {
		scores[i] = s.inner.Predict(i)
	}
	k := len(s.inner.TopK())
	idxs, err := diversify.MMR(scores, s.matrix.Rows, k, lambda)
	if err != nil {
		return nil, err
	}
	out := make([]View, len(idxs))
	for i, idx := range idxs {
		out[i] = s.viewAt(idx)
	}
	return out, nil
}

// Score returns the estimator's current utility prediction for one view.
func (s *Seeker) Score(index int) float64 { return s.inner.Predict(index) }

// SQL returns the GROUP BY query that computes one view over the
// reference table — handy for exporting recommendations to other tools.
func (s *Seeker) SQL(index int) (string, error) {
	if index < 0 || index >= s.NumViews() {
		return "", fmt.Errorf("viewseeker: view %d out of range [0, %d)", index, s.NumViews())
	}
	gen, err := s.generator()
	if err != nil {
		return "", err
	}
	spec := s.matrix.Specs[index]
	return spec.SQL(s.ref.Name, gen.Layout(spec)), nil
}

// Weights returns the learned utility-function composition: feature name →
// weight (Eq. 4), plus the intercept. Empty before the first feedback.
func (s *Seeker) Weights() (map[string]float64, float64) {
	w, b := s.inner.Weights()
	if w == nil {
		return nil, 0
	}
	out := make(map[string]float64, len(w))
	for i, name := range s.registry.Names() {
		out[name] = w[i]
	}
	return out, b
}

// Save writes the session's labelling history as JSON. Together with the
// same table, query and options, it reconstructs the session exactly (the
// estimators are deterministic functions of the labels).
func (s *Seeker) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(s.inner.State())
}

// Load replays a saved session into this (fresh) one.
func (s *Seeker) Load(r io.Reader) error {
	var st core.SessionState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("viewseeker: decoding session: %w", err)
	}
	return s.inner.Restore(st)
}

// Pair executes one view's target/reference histogram pair on the full
// data (for rendering or custom analysis).
func (s *Seeker) Pair(index int) (*Pair, error) {
	if index < 0 || index >= s.NumViews() {
		return nil, fmt.Errorf("viewseeker: view %d out of range [0, %d)", index, s.NumViews())
	}
	gen, err := s.generator()
	if err != nil {
		return nil, err
	}
	return gen.Pair(s.matrix.Specs[index])
}

// Render returns an ASCII rendering of one view's target vs reference bar
// charts.
func (s *Seeker) Render(index int) (string, error) {
	p, err := s.Pair(index)
	if err != nil {
		return "", err
	}
	return p.Render(0), nil
}

// Explain returns a short, ranked plain-text explanation of what makes one
// view notable (outstanding bars, trend reversals, statistical
// significance), up to max bullet points (0 = all).
func (s *Seeker) Explain(index, max int) (string, error) {
	p, err := s.Pair(index)
	if err != nil {
		return "", err
	}
	return explain.Summarize(p, max)
}
