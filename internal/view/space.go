package view

import (
	"context"
	"fmt"

	"viewseeker/internal/dataset"
	"viewseeker/internal/obs"
	"viewseeker/internal/par"
)

// SpaceConfig controls view-space enumeration.
type SpaceConfig struct {
	// Aggs is the aggregate-function set; nil means the standard five.
	Aggs []string
	// BinCounts lists the bin configurations applied to numeric dimensions
	// (the SYN testbed uses {3, 4}); nil means {4}. Categorical dimensions
	// always get exactly one configuration (their distinct values).
	BinCounts []int
	// EqualDepth switches numeric dimensions from equal-width to
	// equal-depth (quantile) binning, computed on the reference data.
	EqualDepth bool
}

func (c SpaceConfig) aggs() []string {
	if len(c.Aggs) == 0 {
		return Aggregates
	}
	return c.Aggs
}

func (c SpaceConfig) binCounts() []int {
	if len(c.BinCounts) == 0 {
		return []int{4}
	}
	return c.BinCounts
}

// binConfigs returns the bin configurations of one dimension of t: the
// configured bin counts for a numeric dimension, the single categorical
// configuration (0) otherwise.
func (c SpaceConfig) binConfigs(t *dataset.Table, dim string) []int {
	if def, _ := t.Schema.Def(dim); def.Kind == dataset.KindInt || def.Kind == dataset.KindFloat {
		return c.binCounts()
	}
	return []int{0}
}

// Normalized returns the config with its defaults made explicit, so two
// spellings of the same space (nil vs the literal default set) enumerate,
// compare and fingerprint identically.
func (c SpaceConfig) Normalized() SpaceConfig {
	return SpaceConfig{Aggs: c.aggs(), BinCounts: c.binCounts(), EqualDepth: c.EqualDepth}
}

// Enumerate lists every view spec over the table's dimension and measure
// attributes: |A| × |M| × |F| specs for categorical data, times the number
// of bin configurations for numeric dimensions (Eq. 1; the paper's factor
// 2 counts the target/reference pair that every spec implies).
func Enumerate(t *dataset.Table, cfg SpaceConfig) ([]Spec, error) {
	dims := t.Schema.Dimensions()
	measures := t.Schema.Measures()
	if len(dims) == 0 || len(measures) == 0 {
		return nil, fmt.Errorf("view: table %q needs at least one dimension and one measure (have %d, %d)",
			t.Name, len(dims), len(measures))
	}
	var specs []Spec
	for _, d := range dims {
		for _, bins := range cfg.binConfigs(t, d) {
			for _, m := range measures {
				for _, f := range cfg.aggs() {
					specs = append(specs, Spec{Dimension: d, Measure: m, Agg: f, Bins: bins})
				}
			}
		}
	}
	return specs, nil
}

// Generator executes view pairs over a reference table DR and a target
// subset DQ, amortising one scan per (dimension, bins) layout across all
// (measure, aggregate) combinations.
//
// The reference half of that work — layouts fit to DR, DR's bin indexes
// and statistics — is the same for every exploration query over one table
// version, so a fresh generator takes it from the version (see refSide):
// a cold create pays only for its own target scans.
//
// All methods are safe for concurrent use: the lazy scan caches are
// single-flight (see lazyCache), so a whole-space feature pass can fan out
// over goroutines, and request-path refinement (FamilyStats) can run
// concurrently with anything else touching the generator — or any other
// generator sharing its reference side — without duplicating scans.
type Generator struct {
	Ref    *dataset.Table
	Target *dataset.Table

	specs []Spec
	// ref holds the layouts and DR's scan caches: the table version's
	// shared side (sharedRef), or a private one after ApplyAppend.
	ref       *refSide
	sharedRef bool
	tgt       scans

	// drift accumulates per-layout out-of-range counts across the
	// ApplyAppend chain since the layouts were fit (nil on a fresh
	// generator). Written once while the new generator is built, read-only
	// after publication — the same immutability discipline as the layout
	// maps.
	drift map[layoutKey]Drift
}

type layoutKey struct {
	dim  string
	bins int
}

type measureKey struct {
	layoutKey
	measure string
}

// NewGenerator enumerates the space and takes the bin layouts and
// reference scan caches of ref's current version, fitting the layouts on
// the version's first generator. The target table must share the
// reference schema.
func NewGenerator(ref, target *dataset.Table, cfg SpaceConfig) (*Generator, error) {
	if ref == nil || target == nil {
		return nil, fmt.Errorf("view: generator needs both reference and target tables")
	}
	specs, err := Enumerate(ref, cfg)
	if err != nil {
		return nil, err
	}
	rs := sharedRefSide(ref, cfg)
	if rs.err != nil {
		return nil, rs.err
	}
	return &Generator{Ref: ref, Target: target, specs: specs, ref: rs, sharedRef: true}, nil
}

// Specs returns the enumerated view space (shared slice; do not mutate).
func (g *Generator) Specs() []Spec { return g.specs }

// Layout returns the bin layout a spec uses.
func (g *Generator) Layout(s Spec) *BinLayout { return g.ref.layouts[layoutKey{s.Dimension, s.Bins}] }

// warmJob names one (table, layout) scan a Warm pass front-loads.
type warmJob struct {
	t     *dataset.Table
	sc    *scans
	cache *lazyCache[layoutKey, *Stats]
	rows  []int
	k     layoutKey
}

// runWarm executes warm jobs over a bounded worker pool. Scans are
// independent per (table, layout) and single-flight in the caches, so
// results are identical to the lazy path; warming just front-loads them
// concurrently. Cancellation is checked between jobs, never inside a scan:
// a layout scan either completes and is cached, or never starts — a
// cancelled warm pass can never poison the caches with partial results.
func (g *Generator) runWarm(ctx context.Context, jobs []warmJob, workers int) error {
	// One warm job is one (table, layout) scan slot; already-cached layouts
	// complete without scanning, so the counter tracks scheduled scan slots
	// — the unit the layout caches deduplicate on.
	obs.RegistryFrom(ctx).Counter("viewseeker_view_warm_scans_total").Add(int64(len(jobs)))
	return par.ForEachCtx(ctx, len(jobs), workers, func(i int) error {
		j := jobs[i]
		_, err := g.statsFor(j.t, j.sc, j.cache, j.k, j.rows)
		return err
	})
}

// WarmCtx computes the full-data bin indexes and group statistics of
// every layout for both tables, fanning the scans out over the given
// number of worker goroutines (≤ 1 means sequential). Already-cached
// layouts cost nothing; cancellation stops the pass between layout scans
// with the context's error. Like every generator method it is safe to
// call concurrently.
func (g *Generator) WarmCtx(ctx context.Context, workers int) error {
	jobs := make([]warmJob, 0, 2*len(g.ref.layouts))
	for k := range g.ref.layouts {
		jobs = append(jobs,
			warmJob{g.Ref, &g.ref.scans, &g.ref.stats, nil, k},
			warmJob{g.Target, &g.tgt, &g.tgt.stats, nil, k})
	}
	return g.runWarm(ctx, jobs, workers)
}

// binsFor returns (building lazily) the dictionary-encoded bin column of
// one table under one layout. The whole dimension is materialised at once:
// the cache entry holds one bin index per bin configuration of the
// layout's dimension, built in a single shared pass over the dimension
// column, and single-flight caching makes concurrent warm jobs for sibling
// configurations wait on that one pass instead of each paying their own.
func (g *Generator) binsFor(t *dataset.Table, sc *scans, k layoutKey) ([]int32, error) {
	keys := g.ref.dimLayouts[k.dim]
	all, err := sc.bins.get(k.dim, func() ([][]int32, error) {
		layouts := make([]*BinLayout, len(keys))
		for i, kk := range keys {
			layouts[i] = g.ref.layouts[kk]
		}
		return BinIndexAll(t, layouts)
	})
	if err != nil {
		return nil, err
	}
	for i, kk := range keys {
		if kk == k {
			return all[i], nil
		}
	}
	return nil, fmt.Errorf("view: layout %s/%d bins is outside the enumerated space", k.dim, k.bins)
}

// statsFor returns the group statistics of table t (whose scan caches are
// sc) under one layout, scanning on first use and caching per layout in
// cache — one scan answers every (measure, aggregate) view on that
// dimension. Both full scans (rows == nil) and sampled scans go through
// sc's bin-index cache: an α-sample pass gathers through the shared
// full-table index instead of re-binning the dimension column, and the
// index it builds is the same one the exact refinement scans reuse later.
func (g *Generator) statsFor(t *dataset.Table, sc *scans, cache *lazyCache[layoutKey, *Stats], k layoutKey, rows []int) (*Stats, error) {
	return cache.get(k, func() (*Stats, error) {
		bins, err := g.binsFor(t, sc, k)
		if err != nil {
			return nil, err
		}
		return CollectStats(t, g.ref.layouts[k], t.Schema.Measures(), rows, bins)
	})
}

// Pair executes one view spec over the full reference and target data,
// from the layout statistics LayoutStats scans (and caches) for all
// measures of the spec's layout at once.
func (g *Generator) Pair(s Spec) (*Pair, error) {
	rs, ts, err := g.LayoutStats(s)
	if err != nil {
		return nil, err
	}
	return AssemblePair(s, rs, ts)
}

// FamilyStats returns the full-data reference and target statistics
// backing the spec's (dimension, bins, measure) family: an already-cached
// all-measures layout scan is reused, and otherwise only the spec's own
// measure is scanned. Incremental refinement uses it so that upgrading a
// family of rough views costs one narrow scan: the optimisation's pruning
// claim is about per-view work, and a full-layout scan would amortise it
// away. The returned Stats answer every aggregate of that family. They
// may carry either all measures or just the spec's (locate it with
// MeasureIndex); they are cache-shared and must not be mutated.
func (g *Generator) FamilyStats(s Spec) (refStats, tgtStats *Stats, err error) {
	k := layoutKey{s.Dimension, s.Bins}
	layout, ok := g.ref.layouts[k]
	if !ok {
		return nil, nil, fmt.Errorf("view: spec %s is outside the enumerated space", s)
	}
	statsOf := func(t *dataset.Table, sc *scans) (*Stats, error) {
		if st, ok := sc.stats.peek(k); ok {
			return st, nil
		}
		mk := measureKey{k, s.Measure}
		return sc.focused.get(mk, func() (*Stats, error) {
			bins, err := g.binsFor(t, sc, k)
			if err != nil {
				return nil, err
			}
			return CollectStats(t, layout, []string{s.Measure}, nil, bins)
		})
	}
	if refStats, err = statsOf(g.Ref, &g.ref.scans); err != nil {
		return nil, nil, err
	}
	if tgtStats, err = statsOf(g.Target, &g.tgt); err != nil {
		return nil, nil, err
	}
	return refStats, tgtStats, nil
}

// LayoutStats returns the full-data all-measures statistics of the spec's
// (dimension, bins) layout for both tables, scanning and caching on first
// use — the layout-block entry point the batched feature kernels consume
// directly, bypassing per-pair Histogram materialisation. The Stats are
// cache-shared and must not be mutated.
func (g *Generator) LayoutStats(s Spec) (refStats, tgtStats *Stats, err error) {
	return g.pairStats(s, &g.ref.stats, &g.tgt.stats, nil, nil)
}

// SampledRun scopes one α-sample pass over the generator's tables: it
// caches the sampled group statistics per layout so that a whole-space
// feature pass costs one sampled scan per layout, not per view. refRows
// and tgtRows restrict the reference and target scans (nil = all rows).
// Like the generator itself, a run is safe for concurrent use.
type SampledRun struct {
	g                *Generator
	refRows, tgtRows []int
	refStats         lazyCache[layoutKey, *Stats]
	tgtStats         lazyCache[layoutKey, *Stats]
}

// NewSampledRun starts a sampled pass.
func (g *Generator) NewSampledRun(refRows, tgtRows []int) *SampledRun {
	return &SampledRun{g: g, refRows: refRows, tgtRows: tgtRows}
}

// LayoutStats returns the run's sampled all-measures statistics of the
// spec's (dimension, bins) layout for both tables — Generator.LayoutStats
// over the run's row samples, with the same sharing contract.
func (r *SampledRun) LayoutStats(s Spec) (refStats, tgtStats *Stats, err error) {
	return r.g.pairStats(s, &r.refStats, &r.tgtStats, r.refRows, r.tgtRows)
}

// WarmCtx pre-scans every layout's sampled statistics for both tables
// over a bounded worker pool — the sampled-pass counterpart of
// Generator.WarmCtx, with its semantics, so that parallel partial feature
// passes front-load their layout scans concurrently too.
func (r *SampledRun) WarmCtx(ctx context.Context, workers int) error {
	g := r.g
	jobs := make([]warmJob, 0, 2*len(g.ref.layouts))
	for k := range g.ref.layouts {
		jobs = append(jobs,
			warmJob{g.Ref, &g.ref.scans, &r.refStats, r.refRows, k},
			warmJob{g.Target, &g.tgt, &r.tgtStats, r.tgtRows, k})
	}
	return r.g.runWarm(ctx, jobs, workers)
}

// pairStats returns both tables' statistics of the spec's layout from the
// given stats caches, scanning the given rows (nil = all) on a miss.
func (g *Generator) pairStats(s Spec, refCache, tgtCache *lazyCache[layoutKey, *Stats], refRows, tgtRows []int) (refStats, tgtStats *Stats, err error) {
	k := layoutKey{s.Dimension, s.Bins}
	if _, ok := g.ref.layouts[k]; !ok {
		return nil, nil, fmt.Errorf("view: spec %s is outside the enumerated space", s)
	}
	if refStats, err = g.statsFor(g.Ref, &g.ref.scans, refCache, k, refRows); err != nil {
		return nil, nil, err
	}
	if tgtStats, err = g.statsFor(g.Target, &g.tgt, tgtCache, k, tgtRows); err != nil {
		return nil, nil, err
	}
	return refStats, tgtStats, nil
}

// AssemblePair builds the spec's validated view pair from one layout's
// reference and target statistics.
func AssemblePair(s Spec, refStats, tgtStats *Stats) (*Pair, error) {
	rh, err := refStats.Histogram(s.Measure, s.Agg)
	if err != nil {
		return nil, err
	}
	th, err := tgtStats.Histogram(s.Measure, s.Agg)
	if err != nil {
		return nil, err
	}
	p := &Pair{Spec: s, Target: th, Reference: rh}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
