package view

import (
	"fmt"
	"math"
	"testing"

	"viewseeker/internal/dataset"
)

// collectStatsReference is the row-at-a-time reference implementation the
// columnar kernels are held bit-identical to: per-row BinOf (kind switch,
// group-key lookup), per-cell Column.Float, bin-major scratch
// accumulators — the pre-kernel scan path. The kernel property tests
// compare CollectStats against it. rows == nil scans every row.
func collectStatsReference(t *dataset.Table, layout *BinLayout, measures []string, rows []int) (*Stats, error) {
	dimCol := t.Column(layout.Dimension)
	if dimCol == nil {
		return nil, fmt.Errorf("view: table %q has no column %q", t.Name, layout.Dimension)
	}
	mCols := make([]*dataset.Column, len(measures))
	for i, m := range measures {
		mCols[i] = t.Column(m)
		if mCols[i] == nil {
			return nil, fmt.Errorf("view: table %q has no measure %q", t.Name, m)
		}
	}
	nb := layout.NumBins()
	alloc := func() [][]float64 {
		out := make([][]float64, nb)
		for i := range out {
			out[i] = make([]float64, len(measures))
		}
		return out
	}
	counts, sums, sumsqs := alloc(), alloc(), alloc()
	mins, maxs := alloc(), alloc()
	for b := 0; b < nb; b++ {
		for m := range measures {
			mins[b][m] = math.Inf(1)
			maxs[b][m] = math.Inf(-1)
		}
	}
	// The same full-column shifts as the flat kernels (measureShift is a
	// column property, not a scan strategy), so flat-vs-reference stays a
	// bit-identity comparison over every array including SumSqs.
	shifts := make([]float64, len(mCols))
	for m, col := range mCols {
		shifts[m] = measureShift(col)
	}
	accumulate := func(r, b int) {
		for m, col := range mCols {
			v, ok := col.Float(r)
			if !ok {
				continue
			}
			d := v - shifts[m]
			counts[b][m]++
			sums[b][m] += v
			sumsqs[b][m] += d * d
			if v < mins[b][m] {
				mins[b][m] = v
			}
			if v > maxs[b][m] {
				maxs[b][m] = v
			}
		}
	}
	if rows == nil {
		for r := 0; r < t.NumRows(); r++ {
			if b := layout.BinOf(dimCol, r); b >= 0 {
				accumulate(r, b)
			}
		}
	} else {
		for _, r := range rows {
			if b := layout.BinOf(dimCol, r); b >= 0 {
				accumulate(r, b)
			}
		}
	}
	s := newStats(layout, measures)
	copy(s.Shifts, shifts)
	for b := 0; b < nb; b++ {
		for m := range measures {
			i := s.Index(m, b)
			s.Counts[i] = counts[b][m]
			s.Sums[i] = sums[b][m]
			s.SumSqs[i] = sumsqs[b][m]
			s.Mins[i] = mins[b][m]
			s.Maxs[i] = maxs[b][m]
		}
	}
	return s, nil
}

// binIndex is BinIndexAll over one layout: the table's bin index under it.
func binIndex(tb testing.TB, t *dataset.Table, layout *BinLayout) []int32 {
	tb.Helper()
	all, err := BinIndexAll(t, []*BinLayout{layout})
	if err != nil {
		tb.Fatal(err)
	}
	return all[0]
}
