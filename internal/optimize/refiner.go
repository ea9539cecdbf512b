package optimize

import (
	"context"
	"fmt"
	"time"

	"viewseeker/internal/feature"
	"viewseeker/internal/obs"
	"viewseeker/internal/par"
)

// Clock abstracts time for deterministic tests.
type Clock func() time.Time

// Refiner incrementally upgrades inexact feature rows to exact ones.
type Refiner struct {
	Matrix *feature.Matrix
	// Now is the clock (default time.Now).
	Now Clock
	// MinPerCall guarantees progress even under a zero/tiny budget: at
	// least this many rows are refreshed per RefineCtx call while any remain
	// (default 1).
	MinPerCall int
	// Workers bounds how many rows a batch holds and how many of its
	// family groups refresh concurrently: rows over the same (dimension,
	// bins, measure) share one narrow scan via RefreshFamily, and the
	// scans of distinct families are independent, so fanning them out
	// hides more exact recomputation inside the same latency budget. ≤ 0
	// selects runtime.NumCPU(); 1 refreshes strictly sequentially (the
	// pre-parallel behaviour, also required when custom utility features
	// are not safe for concurrent use).
	Workers int
	// OnRow, when non-nil, is called once per row successfully refreshed,
	// with the row's view index — the observation hook cancellation tests
	// and instrumentation count refinement progress through. It runs on the
	// refresh worker goroutines, so it must be safe for concurrent use when
	// Workers != 1.
	OnRow func(viewIdx int)
}

// NewRefiner wraps a matrix.
func NewRefiner(m *feature.Matrix) *Refiner { return &Refiner{Matrix: m} }

// Done reports whether every row is already exact.
func (r *Refiner) Done() bool { return r.Matrix.AllExact() }

// RefineCtx refreshes rows in the given priority order (highest priority
// first) until the budget elapses or everything is exact, fanning batches
// of up to Workers rows out concurrently. It returns the number of rows
// refreshed. Rows already exact (and duplicate priority entries) cost
// nothing and are skipped. A nil priority refreshes in index order. The
// budget is checked between batches, so at least MinPerCall rows — and at
// most one extra batch — refresh even under a zero budget.
//
// Cancellation is honoured like an expired budget, checked between
// batches and between family groups inside a batch (via par.ForEachCtx),
// so a cancelled call returns within one layout-family scan per worker —
// with Workers = 1 every group is a single row, preserving the sequential
// one-row granularity. Rows already refreshed stay refreshed — refinement
// is monotonic, so stopping early is always safe — and the context's
// error is returned alongside the count.
func (r *Refiner) RefineCtx(ctx context.Context, priority []int, budget time.Duration) (refreshed int, err error) {
	if r.Matrix == nil {
		return 0, fmt.Errorf("optimize: refiner has no matrix")
	}
	// The span/metrics generalise the OnRow observation hook: OnRow reports
	// per-row progress to one caller, the registry accumulates rows and
	// wall time across every session sharing it. Both observe the same
	// events; neither alters scheduling, so refinement stays deterministic.
	ctx, span := obs.StartSpan(ctx, "feedback.refine")
	defer span.End()
	if reg := obs.RegistryFrom(ctx); reg != nil {
		start := time.Now()
		defer func() {
			reg.Counter("viewseeker_optimize_refined_rows_total").Add(int64(refreshed))
			reg.Histogram("viewseeker_optimize_refine_seconds", obs.DurationBuckets).
				ObserveDuration(time.Since(start))
		}()
	}
	now := r.Now
	if now == nil {
		now = time.Now
	}
	minPer := r.MinPerCall
	if minPer <= 0 {
		minPer = 1
	}
	workers := par.Resolve(r.Workers)
	if priority == nil {
		priority = make([]int, r.Matrix.Len())
		for i := range priority {
			priority[i] = i
		}
	}
	deadline := now().Add(budget)
	// Batches must not contain duplicate indices: two goroutines
	// refreshing the same row would race on its matrix slots.
	seen := make(map[int]bool)
	batch := make([]int, 0, workers)
	pos := 0
	for pos < len(priority) {
		batch = batch[:0]
		for pos < len(priority) && len(batch) < workers {
			i := priority[pos]
			if i < 0 || i >= r.Matrix.Len() {
				return refreshed, fmt.Errorf("optimize: priority index %d out of range", i)
			}
			pos++
			if seen[i] || r.Matrix.Exact[i] {
				continue
			}
			seen[i] = true
			batch = append(batch, i)
		}
		if len(batch) == 0 {
			break
		}
		if refreshed >= minPer && !now().Before(deadline) {
			break
		}
		if err := ctx.Err(); err != nil {
			return refreshed, err
		}
		// Rows over the same aggregate family — identical (dimension, bins,
		// measure) — come from one narrow scan, so the batch fans out over
		// family groups rather than individual rows: RefreshFamily upgrades
		// each group in a single stats pass, and refinePriority's habit of
		// queueing siblings together means a batch often collapses to a
		// handful of scans.
		families := groupFamilies(r.Matrix, batch)
		if err := par.ForEachCtx(ctx, len(families), workers, func(j int) error {
			g := families[j]
			if err := r.Matrix.RefreshFamily(g); err != nil {
				return err
			}
			if r.OnRow != nil {
				for _, i := range g {
					r.OnRow(i)
				}
			}
			return nil
		}); err != nil {
			return refreshed, err
		}
		refreshed += len(batch)
	}
	return refreshed, nil
}

// famKey identifies an aggregate family: views sharing it differ only in
// their aggregate function and are computed from the same narrow scan.
type famKey struct {
	dim, measure string
	bins         int
}

// groupFamilies partitions batch indices into family groups, preserving
// first-seen order so priority order survives the grouping.
func groupFamilies(m *feature.Matrix, idxs []int) [][]int {
	order := make([]famKey, 0, len(idxs))
	groups := make(map[famKey][]int, len(idxs))
	for _, i := range idxs {
		s := m.Specs[i]
		k := famKey{dim: s.Dimension, measure: s.Measure, bins: s.Bins}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([][]int, len(order))
	for j, k := range order {
		out[j] = groups[k]
	}
	return out
}
