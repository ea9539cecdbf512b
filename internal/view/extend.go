package view

import (
	"fmt"
	"math"
	"slices"

	"viewseeker/internal/dataset"
)

// This file is the incremental-maintenance (IVM) side of the scan layer:
// given the cached artifacts of a table and a longer table that extends it
// row-for-row, the Extend kernels produce the longer table's artifacts by
// processing only the appended suffix. Bit-identity with a from-scratch
// recompute is the load-bearing contract — cached offline results must be
// indistinguishable from freshly computed ones — and it holds because:
//
//   - ApplyAppend extends only while the appended rows leave every
//     layout's fit unchanged (fitHolds), so the layouts are the ones a
//     fresh fit of the longer table returns and a row's bin is a pure
//     per-row function: extending the index row by row matches a full
//     re-index exactly;
//   - the flat Stats accumulators are updated per (measure, bin) slot in
//     ascending row order, so continuing from the base accumulators
//     replays the identical sequence of floating-point operations a full
//     scan would perform — non-associativity never gets a chance to bite;
//   - the variance shift is a full-column property (first non-null).
//     Appends cannot change it unless the base column was all-null, which
//     extendStats detects and reports so the caller falls back to a full
//     recompute for that layout.
//
// The property tests in extend_test.go and live_test.go hold
// append-then-extend and rebuild-from-scratch bit-identical over
// randomised tables and appends.

// fitHolds reports whether appending rows from..NumRows-1 of t to the
// table l was fit to leaves the fit unchanged, judged from the appended
// rows alone: every non-NULL categorical value is already a label, and
// every non-NULL, non-NaN numeric value lies within the fitted [Lo, top]
// (NaN places no bound: NumericRange skips it).
func (l *BinLayout) fitHolds(t *dataset.Table, from int) bool {
	col := t.Column(l.Dimension)
	if col == nil {
		return false
	}
	for r := from; r < t.NumRows(); r++ {
		if col.IsNull(r) {
			continue
		}
		if !l.Numeric {
			if _, ok := l.index[col.GroupKey(r)]; !ok {
				return false
			}
		} else if f, ok := col.Float(r); ok && (f < l.Lo || f > l.top) {
			return false
		}
	}
	return true
}

// extendBinIndexAll extends cached bin indexes to cover an appended table:
// t must extend the indexes' original table row-for-row, old must be a
// BinIndexAll result over the same layouts (all on one dimension), backs
// holds the Backing each old index lives on (nil for a fresh BinIndexAll
// result), and from is the original row count (= len of each old index).
// Each index grows through dataset.Extend: rows below from stay where
// they are, shared with old, when the index can claim its array's tail,
// and are copied otherwise; rows from..NumRows-1 are binned by
// BinIndexAll's own kernel. The result is exactly BinIndexAll(t, layouts)
// — appended values outside a layout (new categoricals, out-of-range
// numerics, NaN) map to bin -1, as in a full re-index under that layout —
// returned with the Backing of each index.
func extendBinIndexAll(t *dataset.Table, layouts []*BinLayout, old [][]int32, backs []*dataset.Backing[int32], from int) ([][]int32, []*dataset.Backing[int32], error) {
	if len(layouts) == 0 {
		return nil, nil, nil
	}
	if len(old) != len(layouts) {
		return nil, nil, fmt.Errorf("view: extending %d bin indexes with %d layouts", len(old), len(layouts))
	}
	if backs != nil && len(backs) != len(old) {
		return nil, nil, fmt.Errorf("view: %d bin indexes with %d backings", len(old), len(backs))
	}
	col, err := dimensionColumn(t, layouts)
	if err != nil {
		return nil, nil, err
	}
	n := t.NumRows()
	if from > n {
		return nil, nil, fmt.Errorf("view: bin index covers %d rows but table has %d", from, n)
	}
	for i, o := range old {
		if len(o) != from {
			return nil, nil, fmt.Errorf("view: bin index %d has %d entries, want %d", i, len(o), from)
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
	return out, nbacks, nil
}

// extendStats extends full-data group statistics to cover an appended
// table: t extends the stats' original table row-for-row, old is a
// full-scan Stats under a layout whose fit the append leaves unchanged
// (never a sampled one — partial accumulators cannot be extended), bins
// is the full bin index of t under that layout, and from is the original
// row count. The appended rows are accumulated on top of a copy of old,
// continuing each slot's addition sequence exactly where the base scan
// left it.
//
// ok is false — with a nil Stats — when a measure's variance shift
// changed: the base column was all-null and an append introduced the first
// non-null value, re-anchoring SumSqs. The caller must then recompute that
// layout from scratch (the only case where a delta cannot reproduce the
// full scan bit-for-bit).
func extendStats(t *dataset.Table, old *Stats, bins []int32, from int) (s *Stats, ok bool, err error) {
	n := t.NumRows()
	if len(bins) != n {
		return nil, false, fmt.Errorf("view: bin index has %d entries for %d rows", len(bins), n)
	}
	if from > n {
		return nil, false, fmt.Errorf("view: stats cover %d rows but table has %d", from, n)
	}
	mCols := make([]*dataset.Column, len(old.Measures))
	for m, name := range old.Measures {
		mCols[m] = t.Column(name)
		if mCols[m] == nil {
			return nil, false, fmt.Errorf("view: table has no measure %q", name)
		}
		// Bit-compare: a NaN shift must not force a rebuild per append.
		if math.Float64bits(measureShift(mCols[m])) != math.Float64bits(old.Shifts[m]) {
			return nil, false, nil
		}
	}
	s = old.clone()
	if from == n {
		return s, true, nil
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
	return s, true, nil
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

// ApplyAppend returns a generator over the appended table versions that
// serves exactly what NewGenerator(newRef, newTarget) would, with every
// cached artifact of g delta-extended instead of recomputed: a subsequent
// feature pass warms instantly and pays only per-view vector assembly. g
// itself is untouched — sessions holding it keep a consistent snapshot
// (the MVCC discipline of the live-table layer).
//
// ok is false, with a nil generator, when the appended reference rows
// change some layout's fit (fitHolds): a new numeric extreme or a new
// category. Only a fresh
// generator over newRef, which refits, is then exact.
//
// Otherwise the extended reference side is content-identical to a fresh
// fit of newRef, so it becomes newRef's own (the one sharedRefSide
// returns): every generator over newRef — another maintained query's
// ApplyAppend, a cold create — shares it, and one append extends one side
// however many queries are maintained. If newRef already has a side, the
// new generator takes that one instead.
//
// Contract: newRef extends g.Ref row-for-row and newTarget extends
// g.Target row-for-row (the live layer verifies target prefix-extension
// before calling and falls back to a fresh generator otherwise).
func (g *Generator) ApplyAppend(newRef, newTarget *dataset.Table) (ng *Generator, ok bool, err error) {
	from := g.Ref.NumRows()
	if newRef.NumRows() < from {
		return nil, false, fmt.Errorf("view: new reference has %d rows, fewer than the base %d", newRef.NumRows(), from)
	}
	if newTarget.NumRows() < g.Target.NumRows() {
		return nil, false, fmt.Errorf("view: new target has %d rows, fewer than the base %d", newTarget.NumRows(), g.Target.NumRows())
	}
	for _, l := range g.ref.layouts {
		if !l.fitHolds(newRef, from) {
			return nil, false, nil
		}
	}
	rs := newRef.Memo(g.ref.cfg.refSideKey(), func() any {
		ext := &refSide{cfg: g.ref.cfg, layouts: g.ref.layouts, dimLayouts: g.ref.dimLayouts}
		if err := g.ref.extendScans(&g.ref.scans, &ext.scans, newRef, from); err != nil {
			// The side is the table's: never install a broken one.
			return newRefSide(newRef, g.ref.cfg)
		}
		return ext
	}).(*refSide)
	ng = &Generator{Ref: newRef, Target: newTarget, specs: g.specs, ref: rs}
	if err := g.ref.extendScans(&g.tgt, &ng.tgt, newTarget, g.Target.NumRows()); err != nil {
		return nil, false, err
	}
	return ng, true, nil
}

// extendScans delta-extends one table's scan caches (bin bundles, layout
// stats, focused stats) from old into nw, under rs's layouts. Stats are
// taken before bin bundles: a stats entry completes only after its bin
// bundle did, so every stats entry taken has its bins — an entry that
// completes between the two snapshots is not carried over and fills
// lazily like any other.
func (rs *refSide) extendScans(old, nw *scans, newT *dataset.Table, from int) error {
	stats, focused := old.stats.snapshot(), old.focused.snapshot()
	extended := make(map[string][][]int32)
	for dim, oldBundle := range old.bins.snapshot() {
		keys := rs.dimLayouts[dim]
		layouts := make([]*BinLayout, len(keys))
		for i, k := range keys {
			layouts[i] = rs.layouts[k]
		}
		idx, backs, err := extendBinIndexAll(newT, layouts, oldBundle.idx, oldBundle.backs, from)
		if err != nil {
			return err
		}
		nw.bins.seed(dim, binBundle{idx: idx, backs: backs})
		extended[dim] = idx
	}
	extend := func(k layoutKey, st *Stats) (*Stats, error) {
		var bins []int32
		if bundle := extended[k.dim]; bundle != nil {
			bins = bundle[slices.Index(rs.dimLayouts[k.dim], k)]
		}
		if bins == nil {
			return nil, fmt.Errorf("view: stats of layout %s/%d bins have no bin index", k.dim, k.bins)
		}
		ns, ok, err := extendStats(newT, st, bins, from)
		if err != nil || ok {
			return ns, err
		}
		// Shift drift: rebuild this layout from scratch.
		return CollectStats(newT, rs.layouts[k], st.Measures, nil, bins)
	}
	for k, st := range stats {
		ns, err := extend(k, st)
		if err != nil {
			return err
		}
		nw.stats.seed(k, ns)
	}
	for mk, st := range focused {
		ns, err := extend(mk.layoutKey, st)
		if err != nil {
			return err
		}
		nw.focused.seed(mk, ns)
	}
	return nil
}
