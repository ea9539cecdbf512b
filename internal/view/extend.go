package view

import (
	"fmt"
	"math"
	"sort"

	"viewseeker/internal/dataset"
)

// This file is the incremental-maintenance (IVM) side of the scan layer:
// given the cached artifacts of a table and a longer table that extends it
// row-for-row, the Extend kernels produce the longer table's artifacts by
// processing only the appended suffix. Bit-identity with a from-scratch
// recompute is the load-bearing contract — cached offline results must be
// indistinguishable from freshly computed ones — and it holds because:
//
//   - bin layouts are pinned to the base reference data, so a row's bin is
//     a pure per-row function: extending the index row by row matches a
//     full re-index under the same layout exactly;
//   - the flat Stats accumulators are updated per (measure, bin) slot in
//     ascending row order, so continuing from the base accumulators
//     replays the identical sequence of floating-point operations a full
//     scan would perform — non-associativity never gets a chance to bite;
//   - the variance shift is a full-column property (first non-null).
//     Appends cannot change it unless the base column was all-null, which
//     ExtendStats detects and reports so the caller falls back to a full
//     recompute for that layout.
//
// The property test in extend_test.go holds append-then-extend and
// rebuild-from-scratch bit-identical over randomised tables and appends.

// Drift counts how many appended values escaped a pinned bin layout: of
// the Appended non-null dimension values processed since the layout was
// fit, OutOfRange fell outside it (new categoricals, numerics past the
// fitted range) and dropped to bin -1. Nulls are excluded on both sides —
// they never fit any layout, so they say nothing about distribution
// shift. Drift accumulates across ApplyAppend generations; a sustained
// high Rate means the layout no longer represents the data and the caller
// should re-fit (re-run layout computation over the full table).
type Drift struct {
	Appended   int
	OutOfRange int
}

// Rate returns the out-of-range fraction (0 when nothing was appended).
func (d Drift) Rate() float64 {
	if d.Appended == 0 {
		return 0
	}
	return float64(d.OutOfRange) / float64(d.Appended)
}

// add accumulates o into d.
func (d *Drift) add(o Drift) {
	d.Appended += o.Appended
	d.OutOfRange += o.OutOfRange
}

// ExtendBinIndexAll extends cached bin indexes to cover an appended table:
// t must extend the indexes' original table row-for-row, old must be a
// BinIndexAll result over the same layouts (all on one dimension), backs
// holds the Backing each old index lives on (nil for a fresh BinIndexAll
// result), and from is the original row count (= len of each old index).
// Each index grows through dataset.Extend: rows below from stay where
// they are, shared with old, when the index can claim its array's tail,
// and are copied otherwise; rows from..NumRows-1 are binned by
// BinIndexAll's own kernel. The result is exactly BinIndexAll(t, layouts)
// — appended values that fall outside a pinned layout (new categoricals,
// out-of-range numerics, NaN) map to bin -1, same as a full re-index
// under that layout — returned with the Backing of each index. The
// per-layout Drift, counted from the kernel's output, reports how many
// appended non-null values escaped each layout this call.
func ExtendBinIndexAll(t *dataset.Table, layouts []*BinLayout, old [][]int32, backs []*dataset.Backing[int32], from int) ([][]int32, []*dataset.Backing[int32], []Drift, error) {
	if len(layouts) == 0 {
		return nil, nil, nil, nil
	}
	if len(old) != len(layouts) {
		return nil, nil, nil, fmt.Errorf("view: extending %d bin indexes with %d layouts", len(old), len(layouts))
	}
	if backs != nil && len(backs) != len(old) {
		return nil, nil, nil, fmt.Errorf("view: %d bin indexes with %d backings", len(old), len(backs))
	}
	col, err := dimensionColumn(t, layouts)
	if err != nil {
		return nil, nil, nil, err
	}
	n := t.NumRows()
	if from > n {
		return nil, nil, nil, fmt.Errorf("view: bin index covers %d rows but table has %d", from, n)
	}
	for i, o := range old {
		if len(o) != from {
			return nil, nil, nil, fmt.Errorf("view: bin index %d has %d entries, want %d", i, len(o), from)
		}
	}
	out := make([][]int32, len(layouts))
	nbacks := make([]*dataset.Backing[int32], len(layouts))
	for i := range out {
		var b *dataset.Backing[int32]
		if backs != nil {
			b = backs[i]
		}
		out[i], nbacks[i] = dataset.Extend(old[i], b, n-from)
	}
	binRows(col, layouts, out, from)
	// NULLs fit no layout, so they say nothing about drift: they count
	// neither as appended nor as out of range.
	nulls := col.NullBitmap()
	drift := make([]Drift, len(layouts))
	for r := from; r < n; r++ {
		if isNull(nulls, r) {
			continue
		}
		for i := range drift {
			drift[i].Appended++
			if out[i][r] < 0 {
				drift[i].OutOfRange++
			}
		}
	}
	return out, nbacks, drift, nil
}

// ExtendStats extends full-data group statistics to cover an appended
// table: t extends the stats' original table row-for-row, old is a
// full-scan Stats under a pinned layout (never a sampled one — partial
// accumulators cannot be extended), bins is the full bin index of t under
// that layout, and from is the original row count. The appended rows are
// accumulated on top of a copy of old, continuing each slot's addition
// sequence exactly where the base scan left it.
//
// ok is false — with a nil Stats — when a measure's variance shift
// changed: the base column was all-null and an append introduced the first
// non-null value, re-anchoring SumSqs. The caller must then recompute that
// layout from scratch (the only case where a delta cannot reproduce the
// full scan bit-for-bit).
//
// dropped counts the appended rows whose bin is -1 — rows the pinned
// layout cannot place (out-of-range values and nulls alike), which every
// slot accumulator therefore skips. It is the stats-side view of layout
// drift: a growing dropped share means the histograms cover less and less
// of the incoming data.
func ExtendStats(t *dataset.Table, old *Stats, bins []int32, from int) (s *Stats, dropped int, ok bool, err error) {
	n := t.NumRows()
	if len(bins) != n {
		return nil, 0, false, fmt.Errorf("view: bin index has %d entries for %d rows", len(bins), n)
	}
	if from > n {
		return nil, 0, false, fmt.Errorf("view: stats cover %d rows but table has %d", from, n)
	}
	for r := from; r < n; r++ {
		if bins[r] < 0 {
			dropped++
		}
	}
	mCols := make([]*dataset.Column, len(old.Measures))
	for m, name := range old.Measures {
		mCols[m] = t.Column(name)
		if mCols[m] == nil {
			return nil, dropped, false, fmt.Errorf("view: table has no measure %q", name)
		}
		// Bit-compare: a NaN shift must not force a rebuild per append.
		if math.Float64bits(measureShift(mCols[m])) != math.Float64bits(old.Shifts[m]) {
			return nil, dropped, false, nil
		}
	}
	s = old.clone()
	if from == n {
		return s, dropped, true, nil
	}
	rows := make([]int, n-from)
	for i := range rows {
		rows[i] = from + i
	}
	nb := s.Layout.NumBins()
	for m, col := range mCols {
		vals, nulls, numOK := col.NumericView()
		if !numOK {
			continue // non-numeric measure: full scans skip it too
		}
		base := m * nb
		accumulateColumn(s.Counts[base:base+nb], s.Sums[base:base+nb],
			s.SumSqs[base:base+nb], s.Mins[base:base+nb], s.Maxs[base:base+nb],
			vals, nulls, rows, bins, s.Shifts[m])
	}
	return s, dropped, true, nil
}

// clone deep-copies the accumulator arrays; layout, measure names and
// shifts are immutable and shared.
func (s *Stats) clone() *Stats {
	dup := func(v []float64) []float64 { return append(make([]float64, 0, len(v)), v...) }
	return &Stats{
		Layout: s.Layout, Measures: s.Measures, Shifts: s.Shifts,
		Counts: dup(s.Counts), Sums: dup(s.Sums), SumSqs: dup(s.SumSqs),
		Mins: dup(s.Mins), Maxs: dup(s.Maxs),
	}
}

// ApplyAppend returns a new generator over the appended table versions,
// with every cached artifact of g delta-extended instead of recomputed: a
// subsequent feature pass warms instantly and pays only per-view vector
// assembly. g itself is untouched — sessions holding it keep a consistent
// snapshot (the MVCC discipline of the live-table layer).
//
// The new generator's reference side is private: its layouts stay pinned
// to the base reference, which a fresh generator over newRef would re-fit,
// so it cannot take newRef's shared side.
//
// Contract: newRef extends g.Ref row-for-row and newTarget extends
// g.Target row-for-row (the live layer verifies target prefix-extension
// before calling and falls back to a fresh generator otherwise). Layouts
// stay pinned to the base reference — appended values outside them drop to
// bin -1 — so downstream results are exactly what a from-scratch pass over
// the new tables with the same layouts would produce, bit for bit.
func (g *Generator) ApplyAppend(newRef, newTarget *dataset.Table) (*Generator, error) {
	if newRef.NumRows() < g.Ref.NumRows() {
		return nil, fmt.Errorf("view: new reference has %d rows, fewer than the base %d", newRef.NumRows(), g.Ref.NumRows())
	}
	if newTarget.NumRows() < g.Target.NumRows() {
		return nil, fmt.Errorf("view: new target has %d rows, fewer than the base %d", newTarget.NumRows(), g.Target.NumRows())
	}
	ng := &Generator{
		Ref: newRef, Target: newTarget, specs: g.specs,
		ref:   &refSide{layouts: g.ref.layouts, dimLayouts: g.ref.dimLayouts},
		drift: make(map[layoutKey]Drift, len(g.drift)),
	}
	// Drift is cumulative since the layouts were fit: each generation
	// inherits its parent's counts and adds what this append escaped.
	for k, d := range g.drift {
		ng.drift[k] = d
	}
	// Layouts are fit on the reference side, so the reference scan is the
	// authoritative drift signal (the target is a subset of the same rows).
	if err := g.extendSide(&g.ref.scans, &ng.ref.scans, newRef, g.Ref.NumRows(), ng.drift); err != nil {
		return nil, err
	}
	if err := g.extendSide(&g.tgt, &ng.tgt, newTarget, g.Target.NumRows(), nil); err != nil {
		return nil, err
	}
	return ng, nil
}

// extendSide delta-extends one table side's caches (bin bundles, layout
// stats, focused stats) from old into nw, under g's layouts. A non-nil
// drift accumulates how many of the side's appended values escaped each
// layout.
func (g *Generator) extendSide(old, nw *scans, newT *dataset.Table, from int, drift map[layoutKey]Drift) error {
	extended := make(map[string][][]int32)
	for dim, oldBundle := range old.bins.snapshot() {
		keys := g.ref.dimLayouts[dim]
		layouts := make([]*BinLayout, len(keys))
		for i, k := range keys {
			layouts[i] = g.ref.layouts[k]
		}
		idx, backs, escaped, err := ExtendBinIndexAll(newT, layouts, oldBundle.idx, oldBundle.backs, from)
		if err != nil {
			return err
		}
		if drift != nil {
			for i, k := range keys {
				d := drift[k]
				d.add(escaped[i])
				drift[k] = d
			}
		}
		nw.bins.seed(dim, binBundle{idx: idx, backs: backs})
		extended[dim] = idx
	}
	binOf := func(k layoutKey) ([]int32, error) {
		if bundle, ok := extended[k.dim]; ok {
			for i, kk := range g.ref.dimLayouts[k.dim] {
				if kk == k {
					return bundle[i], nil
				}
			}
		}
		// Stats were cached without their bin bundle surviving (should not
		// happen — statsFor builds bins first — but recompute rather than
		// fail).
		return g.binsFor(newT, nw, k)
	}
	for k, st := range old.stats.snapshot() {
		bins, err := binOf(k)
		if err != nil {
			return err
		}
		ns, _, ok, err := ExtendStats(newT, st, bins, from)
		if err != nil {
			return err
		}
		if !ok { // shift drift: rebuild this layout from scratch
			ns, err = CollectStats(newT, g.ref.layouts[k], st.Measures, nil, bins)
			if err != nil {
				return err
			}
		}
		nw.stats.seed(k, ns)
	}
	for mk, st := range old.focused.snapshot() {
		bins, err := binOf(mk.layoutKey)
		if err != nil {
			return err
		}
		ns, _, ok, err := ExtendStats(newT, st, bins, from)
		if err != nil {
			return err
		}
		if !ok {
			ns, err = CollectStats(newT, g.ref.layouts[mk.layoutKey], st.Measures, nil, bins)
			if err != nil {
				return err
			}
		}
		nw.focused.seed(mk, ns)
	}
	return nil
}

// LayoutDrift is one layout's cumulative drift, in exported form.
type LayoutDrift struct {
	Dimension string
	Bins      int
	Drift     Drift
}

// DriftStats returns the cumulative per-layout drift accumulated across
// the ApplyAppend chain that produced this generator, sorted by
// (dimension, bins) for determinism. A freshly constructed generator —
// whose layouts were fit to its own reference data — has none.
func (g *Generator) DriftStats() []LayoutDrift {
	out := make([]LayoutDrift, 0, len(g.drift))
	for k, d := range g.drift {
		out = append(out, LayoutDrift{Dimension: k.dim, Bins: k.bins, Drift: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dimension != out[j].Dimension {
			return out[i].Dimension < out[j].Dimension
		}
		return out[i].Bins < out[j].Bins
	})
	return out
}

// MaxDriftRate returns the highest cumulative out-of-range rate across
// all layouts (0 for a fresh generator). This is the scalar a maintainer
// compares against its drift threshold to decide when the pinned layouts
// need re-fitting.
func (g *Generator) MaxDriftRate() float64 {
	var max float64
	for _, d := range g.drift {
		if r := d.Rate(); r > max {
			max = r
		}
	}
	return max
}
