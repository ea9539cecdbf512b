package feature

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"viewseeker/internal/obs"
	"viewseeker/internal/par"
	"viewseeker/internal/view"
)

// Matrix holds the utility-feature vector of every view in the space,
// together with per-view exactness flags: a row computed from an α-sample
// is "rough" until the optimiser refreshes it against the full data.
type Matrix struct {
	Specs []view.Spec
	Names []string
	Rows  [][]float64
	Exact []bool

	gen      *view.Generator
	registry *Registry
	// version counts Rows mutations (RefreshFamily). Consumers that derive
	// state from the rows — the seeker's whole-space scaler, its refit
	// sufficient statistics — key their caches on it.
	version atomic.Uint64
}

// Version returns the matrix's mutation counter: it increments every time
// a refresh rewrites rows, so row-derived caches can detect staleness
// without comparing row contents. Safe for concurrent use.
func (m *Matrix) Version() uint64 { return m.version.Load() }

// ComputeWorkers builds the matrix over the full data — the unoptimised
// offline phase of ViewSeeker. Feature vectors (and the layout scans
// beneath them) fan out over at most workers goroutines. workers ≤ 0
// selects runtime.NumCPU(); workers == 1 is the fully sequential path.
// The resulting matrix is bit-identical across worker counts — every row
// is a pure function of its view's scan statistics, which are computed
// single-threaded per layout. Custom features registered on r must be
// safe for concurrent use when workers != 1 (the standard eight are
// pure).
func ComputeWorkers(g *view.Generator, r *Registry, workers int) (*Matrix, error) {
	return computeMatrix(context.Background(), g, r, nil, workers)
}

// ComputePartialWorkersCtx builds the matrix from a uniform α-sample of
// the reference table — the "rough" utility scores of the optimisation —
// under a context. The target subset DQ is always scanned exactly: it is
// a fraction of a percent of the data, so sampling it would add noise
// without saving meaningful work. Rows are marked inexact; RefreshFamily
// upgrades them on demand. α = 1 is the exact pass. Worker counts have
// ComputeWorkers's semantics and determinism guarantee (the α-sample is a
// deterministic stride, so sampled matrices are also bit-identical across
// worker counts). Cancellation is checked between work items — layout
// scans during warming, layout blocks of feature rows afterwards — never
// inside the row-level kernels, so the overhead is amortised per item and
// a cancelled offline pass stops within one item per worker. The partial
// matrix is discarded: the context's error is returned and no session is
// built.
func ComputePartialWorkersCtx(ctx context.Context, g *view.Generator, r *Registry, alpha float64, workers int) (*Matrix, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("feature: alpha must be in (0, 1], got %g", alpha)
	}
	if alpha == 1 {
		return computeMatrix(ctx, g, r, nil, workers)
	}
	return computeMatrix(ctx, g, r, g.Ref.SampleRows(alpha), workers)
}

// computeMatrix fills the matrix of g's view space under r, over the
// refRows sample of the reference table (nil = every row, an exact pass).
func computeMatrix(ctx context.Context, g *view.Generator, r *Registry, refRows []int, workers int) (*Matrix, error) {
	workers = par.Resolve(workers)
	specs := g.Specs()
	exact := refRows == nil
	m := &Matrix{
		Specs:    specs,
		Names:    r.Names(),
		Rows:     make([][]float64, len(specs)),
		Exact:    make([]bool, len(specs)),
		gen:      g,
		registry: r,
	}
	// Exact passes go through the generator's persistent caches so later
	// refreshes (a no-op here, but uniform) share the same scans;
	// sampled passes get run-scoped caches. Both warm their layout scans
	// concurrently first — full-data scans dominate the offline phase and
	// are independent per (table, layout) — then fan the layout blocks of
	// feature rows out over the same worker budget.
	reg := obs.RegistryFrom(ctx)
	warmCtx, warmSpan := obs.StartSpan(ctx, "offline.warm")
	warmStart := time.Now()
	statsOf := g.LayoutStats
	if !exact {
		run := g.NewSampledRun(refRows)
		if err := run.WarmCtx(warmCtx, workers); err != nil {
			warmSpan.End()
			return nil, err
		}
		statsOf = run.LayoutStats
	} else if err := g.WarmCtx(warmCtx, workers); err != nil {
		warmSpan.End()
		return nil, err
	}
	warmSpan.End()
	reg.Histogram("viewseeker_offline_warm_seconds", obs.DurationBuckets).
		ObserveDuration(time.Since(warmStart))

	// One layout's views are filled together straight from the layout
	// statistics (see block.go), so cancellation granularity is one layout
	// block. Each block's rows share one flat backing array, cutting the
	// per-view allocation to a slice header.
	featCtx, featSpan := obs.StartSpan(ctx, "offline.features")
	featStart := time.Now()
	groups := layoutGroups(specs)
	k := r.Len()
	err := par.ForEachCtx(featCtx, len(groups), workers, func(gi int) error {
		idxs := groups[gi]
		rs, ts, err := statsOf(specs[idxs[0]])
		if err != nil {
			return err
		}
		rows := blockRows(len(idxs), k)
		var sc blockScratch
		if err := r.fillBlockRows(rs, ts, specs, idxs, rows, &sc); err != nil {
			return err
		}
		for j, i := range idxs {
			m.Rows[i] = rows[j]
			m.Exact[i] = exact
		}
		return nil
	})
	reg.Counter("viewseeker_feature_block_fills_total").Add(int64(len(groups)))
	featSpan.End()
	if err != nil {
		return nil, err
	}
	reg.Histogram("viewseeker_offline_features_seconds", obs.DurationBuckets).
		ObserveDuration(time.Since(featStart))
	reg.Counter("viewseeker_offline_views_total").Add(int64(len(specs)))
	return m, nil
}

// Rebuild reconstructs a Matrix over shared, immutable rows — how every
// session attaches to an offline version. The matrix gets its own copies
// of the outer row-header slice and the exactness flags and nothing else:
// the row contents stay shared, and refinement never writes into them
// (RefreshFamily installs freshly allocated rows), so the matrix is a
// copy-on-write overlay that cannot disturb the caller's rows or any other
// matrix rebuilt from them. The generator may be nil only when every row
// is exact: refreshes never consult it then, whereas a partial matrix
// needs it for incremental refinement.
func Rebuild(g *view.Generator, r *Registry, specs []view.Spec, rows [][]float64, exact []bool) (*Matrix, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("feature: rebuild needs a non-empty view space")
	}
	if len(rows) != len(specs) || len(exact) != len(specs) {
		return nil, fmt.Errorf("feature: rebuild shape mismatch: %d specs, %d rows, %d exact flags",
			len(specs), len(rows), len(exact))
	}
	names := r.Names()
	for i, row := range rows {
		if len(row) != len(names) {
			return nil, fmt.Errorf("feature: rebuild row %d has %d features, want %d", i, len(row), len(names))
		}
	}
	if g == nil {
		for i, e := range exact {
			if !e {
				return nil, fmt.Errorf("feature: rebuilding inexact row %d requires a generator", i)
			}
		}
	}
	rows = append([][]float64(nil), rows...)
	exact = append([]bool(nil), exact...)
	return &Matrix{Specs: specs, Names: names, Rows: rows, Exact: exact, gen: g, registry: r}, nil
}

// Len returns the number of views.
func (m *Matrix) Len() int { return len(m.Rows) }

// AllExact reports whether every row has been computed on the full data.
func (m *Matrix) AllExact() bool {
	for _, e := range m.Exact {
		if !e {
			return false
		}
	}
	return true
}

// RefreshFamily recomputes the given views on the full data and marks
// them exact, one (dimension, bins, measure) family at a time. The
// family's statistics are fetched once through Generator.FamilyStats (a
// cached all-measures scan, else one narrow single-measure scan) and rows
// are block-filled from them, so refining a whole family costs one scan
// plus the fused kernels instead of per-view Histogram assembly and
// closure dispatch. The refreshed rows are filled fresh, sharing one
// backing array per family, and installed only once the whole family
// filled, so the refresh costs two allocations outside the scan (see
// TestFeatureBlockAllocations), never writes into a row another matrix
// may share, and on error leaves Rows, Exact and Version as they were.
// Already-exact rows are skipped;
// results are bit-identical to the per-view oracle (RefreshRow, kept as
// test code).
func (m *Matrix) RefreshFamily(idxs []int) error {
	if len(idxs) == 0 {
		return nil
	}
	for _, i := range idxs {
		if i < 0 || i >= len(m.Rows) {
			return fmt.Errorf("feature: row %d out of range [0, %d)", i, len(m.Rows))
		}
	}
	first := m.Specs[idxs[0]]
	todo := make([]int, 0, len(idxs))
	for _, i := range idxs {
		s := m.Specs[i]
		if s.Dimension != first.Dimension || s.Bins != first.Bins || s.Measure != first.Measure {
			return fmt.Errorf("feature: family refresh mixes %s/%d/%s and %s/%d/%s",
				first.Dimension, first.Bins, first.Measure, s.Dimension, s.Bins, s.Measure)
		}
		if !m.Exact[i] {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	rs, ts, err := m.gen.FamilyStats(m.Specs[todo[0]])
	if err != nil {
		return err
	}
	rows := blockRows(len(todo), m.registry.Len())
	var sc blockScratch
	if err := m.registry.fillBlockRows(rs, ts, m.Specs, todo, rows, &sc); err != nil {
		return err
	}
	for j, i := range todo {
		m.Rows[i] = rows[j]
		m.Exact[i] = true
	}
	m.version.Add(1)
	return nil
}

// blockRows returns n fresh rows of width k sharing one backing array,
// for a block fill to write before they are installed.
func blockRows(n, k int) [][]float64 {
	backing := make([]float64, n*k)
	rows := make([][]float64, n)
	for j := range rows {
		rows[j] = backing[j*k : (j+1)*k : (j+1)*k]
	}
	return rows
}
