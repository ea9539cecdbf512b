package view

import (
	"fmt"
	"math"
	"slices"

	"viewseeker/internal/dataset"
)

// BinLayout fixes the bin structure of one dimension so target and
// reference histograms align. Categorical layouts enumerate the reference
// dataset's distinct values; numeric layouts split the reference range
// into equal-width bins.
type BinLayout struct {
	Dimension string
	Numeric   bool
	Labels    []string
	// Numeric layouts: [Lo, Hi) split into Bins equal bins.
	// Hi is nudged above the data maximum so the max value falls in the
	// last bin.
	Lo, Hi float64
	Bins   int
	// top is a numeric layout's data maximum before Hi's nudge: with Lo,
	// the fit an append is checked against (fitHolds).
	top float64

	index map[string]int // categorical group key → bin
}

// computeLayout builds the layout for a dimension from the reference
// table. bins > 0 requests numeric equal-width binning and is required for
// numeric dimensions; categorical (string/bool) dimensions ignore it and
// get one bin per distinct non-NULL value.
func computeLayout(ref *dataset.Table, dim string, bins int) (*BinLayout, error) {
	col := ref.Column(dim)
	if col == nil {
		return nil, fmt.Errorf("view: table %q has no column %q", ref.Name, dim)
	}
	switch col.Def.Kind {
	case dataset.KindString, dataset.KindBool:
		vals, err := ref.DistinctValues(dim)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("view: dimension %q has no values", dim)
		}
		l := &BinLayout{Dimension: dim, Labels: vals, index: make(map[string]int, len(vals))}
		for i, v := range vals {
			l.index[v] = i
		}
		return l, nil
	case dataset.KindInt, dataset.KindFloat:
		if bins <= 0 {
			return nil, fmt.Errorf("view: numeric dimension %q needs a bin count", dim)
		}
		lo, hi, ok := ref.NumericRange(dim)
		if !ok {
			return nil, fmt.Errorf("view: dimension %q has no numeric values", dim)
		}
		top := hi
		if hi <= lo {
			hi = lo + 1 // constant column: one degenerate range
		} else {
			hi = hi + (hi-lo)*1e-9 // include the max in the last bin
		}
		l := &BinLayout{Dimension: dim, Numeric: true, Lo: lo, Hi: hi, Bins: bins, top: top}
		width := (hi - lo) / float64(bins)
		for i := 0; i < bins; i++ {
			l.Labels = append(l.Labels, fmt.Sprintf("[%.3g,%.3g)", lo+float64(i)*width, lo+float64(i+1)*width))
		}
		return l, nil
	default:
		return nil, fmt.Errorf("view: dimension %q has unsupported kind %s", dim, col.Def.Kind)
	}
}

// NumBins returns the layout's bin count.
func (l *BinLayout) NumBins() int { return len(l.Labels) }

// binOfFloat maps a numeric value to its bin, or -1 outside [Lo, Hi). It
// is the single binning expression of the columnar bin-index kernel and
// the per-row oracle its tests hold it to (BinOf, in test code), so the
// two can never disagree on boundary rounding.
// NaN is outside every layout, like NULL: it fails both range tests.
func (l *BinLayout) binOfFloat(f float64) int {
	if !(f >= l.Lo && f < l.Hi) {
		if f == l.Hi { // degenerate constant-column layout
			return l.Bins - 1
		}
		return -1
	}
	x := (f - l.Lo) / (l.Hi - l.Lo) * float64(l.Bins)
	if math.IsNaN(x) {
		// An infinite bound makes the position ∞/∞: the layout cannot
		// place the value, and int(NaN) is not a bin.
		return -1
	}
	i := int(x)
	if i >= l.Bins {
		i = l.Bins - 1
	}
	return i
}

// Stats holds one scan's worth of group statistics for a (dimension,
// bins) layout: for every bin and every measure, the count, sum, sum of
// squares, min and max of the measure. One Stats answers every (m, f)
// view on that dimension, which is how the generator amortises scans.
//
// The five statistics are flat, contiguous, measure-major arrays —
// statistic X of measure m in bin b lives at X[Index(m, b)] — so the scan
// kernels accumulate into one cache-resident stripe per measure instead of
// chasing a pointer per bin.
//
// SumSqs is accumulated about a per-measure shift (Shifts[m], the
// measure's first non-null value over the full column): SumSqs[Index(m,b)]
// is Σ(v−Shifts[m])². Shifting the second moment near the data keeps
// downstream variance forms (metric.Accuracy) numerically stable for
// measures whose mean is large relative to their spread; consumers must
// pass the matching shift alongside. The shift is a property of the full
// column — independent of the scanned row subset — so partial scans stay
// additive and sampled scans agree with full ones.
type Stats struct {
	Layout   *BinLayout
	Measures []string
	// Shifts[m] is the constant subtracted inside measure m's SumSqs.
	Shifts []float64
	// All indexed [measure*NumBins()+bin]; see Index.
	Counts []float64
	Sums   []float64
	SumSqs []float64
	Mins   []float64
	Maxs   []float64
}

// Index returns the flat offset of (measure m, bin b).
func (s *Stats) Index(m, b int) int { return m*s.Layout.NumBins() + b }

// newStats allocates zeroed accumulators, with min/max seeded to ±Inf.
func newStats(layout *BinLayout, measures []string) *Stats {
	n := layout.NumBins() * len(measures)
	s := &Stats{
		Layout: layout, Measures: measures,
		Shifts: make([]float64, len(measures)),
		Counts: make([]float64, n), Sums: make([]float64, n), SumSqs: make([]float64, n),
		Mins: make([]float64, n), Maxs: make([]float64, n),
	}
	for i := range s.Mins {
		s.Mins[i] = math.Inf(1)
		s.Maxs[i] = math.Inf(-1)
	}
	return s
}

// measureShift returns the variance-stabilising shift of one measure
// column: its first non-null numeric value, 0 for all-null or non-numeric
// columns. It depends only on the full column, never on the row subset
// being scanned, so every scan of a table (full, sampled, focused) derives
// the same shift and their SumSqs remain directly comparable and additive.
func measureShift(col *dataset.Column) float64 {
	vals, nulls, ok := col.NumericView()
	if !ok {
		return 0
	}
	for r := range vals {
		if !isNull(nulls, r) {
			return vals[r]
		}
	}
	return 0
}

// smallDictMax is the categorical cardinality up to which the bin-index
// kernel resolves labels with a first-byte table and linear probing
// instead of hashing through the layout's map.
const smallDictMax = 24

// probeLabels returns the bin whose label equals s, or -1.
func probeLabels(labels []string, s string) int32 {
	for i, lab := range labels {
		if lab == s {
			return int32(i)
		}
	}
	return -1
}

// isNull reads bit r of a column null bitmap. Nil-safe: the bitmap covers
// only up to the highest null row.
func isNull(nulls []uint64, r int) bool {
	w := r >> 6
	return w < len(nulls) && nulls[w]>>(uint(r)&63)&1 == 1
}

// BinIndexAll materialises the bin index of every supplied layout — all
// bin configurations of one dimension — as dictionary-encoded dimension
// columns: entry r of result i is the bin layouts[i] places row r's
// dimension value in, -1 for NULLs, NaNs and out-of-layout values. Scans
// that reuse an index avoid the per-row lookup that otherwise dominates
// grouping, and the fused pass pays one column read and one null test per
// row for a multi-configuration numeric dimension instead of one per
// configuration.
func BinIndexAll(t *dataset.Table, layouts []*BinLayout) ([][]int32, error) {
	if len(layouts) == 0 {
		return nil, nil
	}
	dimCol, err := dimensionColumn(t, layouts)
	if err != nil {
		return nil, err
	}
	out := make([][]int32, len(layouts))
	for i := range out {
		out[i] = make([]int32, t.NumRows())
	}
	binRows(dimCol, layouts, out, 0)
	return out, nil
}

// dimensionColumn returns the one dimension column a set of layouts bins.
func dimensionColumn(t *dataset.Table, layouts []*BinLayout) (*dataset.Column, error) {
	dim := layouts[0].Dimension
	for _, l := range layouts[1:] {
		if l.Dimension != dim {
			return nil, fmt.Errorf("view: bin index layouts mix dimensions %q and %q", dim, l.Dimension)
		}
	}
	col := t.Column(dim)
	if col == nil {
		return nil, fmt.Errorf("view: table %q has no column %q", t.Name, dim)
	}
	return col, nil
}

// binRows is the bin-index kernel: it writes rows from..len(out[i])-1 of
// every out[i] under layouts[i], leaving the rows below from untouched,
// so a full index (from 0) and an appended suffix are binned by the same
// code. Several numeric layouts share one pass over the column.
func binRows(col *dataset.Column, layouts []*BinLayout, out [][]int32, from int) {
	fused := len(layouts) > 1
	for _, l := range layouts {
		fused = fused && l.Numeric
	}
	if !fused {
		for i, l := range layouts {
			l.fillBins(col, out[i], from)
		}
		return
	}
	vals, nulls, ok := col.NumericView()
	for r := from; r < len(out[0]); r++ {
		if !ok || isNull(nulls, r) {
			// fillBins's rule: NULLs, and every row of a dimension with no
			// numeric view, are outside every layout.
			for i := range layouts {
				out[i][r] = -1
			}
			continue
		}
		v := vals[r]
		for i, l := range layouts {
			out[i][r] = int32(l.binOfFloat(v))
		}
	}
}

// fillBins is the one-layout bin-index kernel for rows from..len(bins)-1:
// it switches on the dimension column's kind once and walks the backing
// slice directly, instead of paying a kind switch — and, for categorical
// dimensions, GroupKey's boxing — once per row. Every path produces
// exactly the per-row oracle's result (BinOf; the bin-index property
// tests hold the two together).
func (l *BinLayout) fillBins(col *dataset.Column, bins []int32, from int) {
	if !l.Numeric {
		nulls := col.NullBitmap()
		switch col.Def.Kind {
		case dataset.KindString:
			strs := col.Strs
			// Bin i is labelled Labels[i], so the label slice doubles as
			// the lookup dictionary. At the small cardinalities typical of
			// categorical dimensions, direct-mapping the labels by first
			// byte beats hashing every row's string through the map: most
			// label sets have distinct initials, making the common row one
			// array index plus one equality check. Shared initials and
			// empty strings fall back to a linear probe over the (small)
			// label set; high-cardinality layouts keep the map. All paths
			// find the same unique label.
			if labels := l.Labels; len(labels) <= smallDictMax {
				var first [256]int32
				for i := range first {
					first[i] = -1
				}
				for i, lab := range labels {
					if lab == "" {
						continue // probed: "" has no first byte
					}
					if b0 := lab[0]; first[b0] == -1 {
						first[b0] = int32(i)
					} else {
						first[b0] = -2 // shared initial: always probe
					}
				}
				for r := from; r < len(bins); r++ {
					if isNull(nulls, r) {
						bins[r] = -1
						continue
					}
					s := strs[r]
					if s != "" {
						if c := first[s[0]]; c >= 0 {
							// The unique label with this initial either is
							// s or no label is.
							if labels[c] == s {
								bins[r] = c
							} else {
								bins[r] = -1
							}
							continue
						} else if c == -1 {
							bins[r] = -1 // no label starts with this byte
							continue
						}
					}
					bins[r] = probeLabels(labels, s)
				}
				return
			}
			for r := from; r < len(bins); r++ {
				if isNull(nulls, r) {
					bins[r] = -1
					continue
				}
				if i, ok := l.index[strs[r]]; ok {
					bins[r] = int32(i)
				} else {
					bins[r] = -1
				}
			}
		case dataset.KindBool:
			// The categorical index keys bools by their printed group keys;
			// resolve both once and select per row.
			binFalse, binTrue := int32(-1), int32(-1)
			if i, ok := l.index["false"]; ok {
				binFalse = int32(i)
			}
			if i, ok := l.index["true"]; ok {
				binTrue = int32(i)
			}
			bools := col.Bools
			for r := from; r < len(bins); r++ {
				switch {
				case isNull(nulls, r):
					bins[r] = -1
				case bools[r]:
					bins[r] = binTrue
				default:
					bins[r] = binFalse
				}
			}
		default:
			for r := from; r < len(bins); r++ {
				bins[r] = -1
				if col.IsNull(r) {
					continue
				}
				if i, ok := l.index[col.GroupKey(r)]; ok {
					bins[r] = int32(i)
				}
			}
		}
		return
	}
	vals, nulls, ok := col.NumericView()
	for r := from; r < len(bins); r++ {
		if !ok || isNull(nulls, r) {
			bins[r] = -1
			continue
		}
		bins[r] = int32(l.binOfFloat(vals[r]))
	}
}

// CollectStats scans the table's rows — the listed ones, or all rows when
// rows is nil — and accumulates per-bin statistics for every measure.
// bins is the table's bin index under layout (a BinIndexAll result, one
// entry per table row), so a sampled pass is a gather through the same
// full-table index the exact scans use, never a re-binning.
func CollectStats(t *dataset.Table, layout *BinLayout, measures []string, rows []int, bins []int32) (*Stats, error) {
	if len(bins) != t.NumRows() {
		return nil, fmt.Errorf("view: bin index has %d entries for %d rows", len(bins), t.NumRows())
	}
	nb := layout.NumBins()
	s := newStats(layout, measures)
	for m, name := range measures {
		col := t.Column(name)
		if col == nil {
			return nil, fmt.Errorf("view: table %q has no measure %q", t.Name, name)
		}
		s.Shifts[m] = measureShift(col)
		vals, nulls, ok := col.NumericView()
		if !ok {
			continue // non-numeric measure: every cell skips, stats stay empty
		}
		base := m * nb
		accumulateColumn(s.Counts[base:base+nb], s.Sums[base:base+nb],
			s.SumSqs[base:base+nb], s.Mins[base:base+nb], s.Maxs[base:base+nb],
			vals, nulls, rows, bins, s.Shifts[m])
	}
	return s, nil
}

// accumulateColumn is the per-measure inner loop of the indexed scan
// kernels: one decoded column accumulated into one measure's flat stripe.
// All branching on scan shape (full vs row subset) and null presence is
// hoisted out of the row loop, leaving four straight-line variants. The
// second moment accumulates about shift (see Stats.Shifts).
func accumulateColumn(cnt, sum, sq, mn, mx, vals []float64, nulls []uint64, rows []int, bins []int32, shift float64) {
	switch {
	case rows == nil && nulls == nil:
		for r, b := range bins {
			if b < 0 {
				continue
			}
			v := vals[r]
			d := v - shift
			cnt[b]++
			sum[b] += v
			sq[b] += d * d
			if v < mn[b] {
				mn[b] = v
			}
			if v > mx[b] {
				mx[b] = v
			}
		}
	case rows == nil:
		for r, b := range bins {
			if b < 0 || isNull(nulls, r) {
				continue
			}
			v := vals[r]
			d := v - shift
			cnt[b]++
			sum[b] += v
			sq[b] += d * d
			if v < mn[b] {
				mn[b] = v
			}
			if v > mx[b] {
				mx[b] = v
			}
		}
	case nulls == nil:
		for _, r := range rows {
			b := bins[r]
			if b < 0 {
				continue
			}
			v := vals[r]
			d := v - shift
			cnt[b]++
			sum[b] += v
			sq[b] += d * d
			if v < mn[b] {
				mn[b] = v
			}
			if v > mx[b] {
				mx[b] = v
			}
		}
	default:
		for _, r := range rows {
			b := bins[r]
			if b < 0 || isNull(nulls, r) {
				continue
			}
			v := vals[r]
			d := v - shift
			cnt[b]++
			sum[b] += v
			sq[b] += d * d
			if v < mn[b] {
				mn[b] = v
			}
			if v > mx[b] {
				mx[b] = v
			}
		}
	}
}

// MeasureIndex returns the position of measure in s.Measures, or -1.
func (s *Stats) MeasureIndex(measure string) int {
	for i, m := range s.Measures {
		if m == measure {
			return i
		}
	}
	return -1
}

// ValuesInto writes the aggregate bar heights of (measure index mi, agg)
// into out — the Values slice of Histogram, which builds on it, so the
// block feature kernel reads the same bar heights without materialising
// a Histogram. len(out) must equal the layout's bin count. Empty bins are
// written as 0 (out is fully overwritten, so a reused scratch buffer
// carries no stale values). The agg switch is hoisted out of the bin loop.
func (s *Stats) ValuesInto(mi int, agg string, out []float64) error {
	if mi < 0 || mi >= len(s.Measures) {
		return fmt.Errorf("view: measure index %d out of range (%d measures)", mi, len(s.Measures))
	}
	nb := s.Layout.NumBins()
	if len(out) != nb {
		return fmt.Errorf("view: values buffer has %d bins, layout has %d", len(out), nb)
	}
	base := mi * nb
	counts := s.Counts[base : base+nb]
	var src []float64
	switch agg {
	case "COUNT":
		copy(out, counts)
		return nil
	case "SUM":
		src = s.Sums[base : base+nb]
	case "AVG":
		sums := s.Sums[base : base+nb]
		for b := 0; b < nb; b++ {
			if c := counts[b]; c == 0 {
				out[b] = 0
			} else {
				out[b] = sums[b] / c
			}
		}
		return nil
	case "MIN":
		src = s.Mins[base : base+nb]
	case "MAX":
		src = s.Maxs[base : base+nb]
	default:
		return fmt.Errorf("view: unknown aggregate %q", agg)
	}
	for b := 0; b < nb; b++ {
		if counts[b] == 0 {
			out[b] = 0
		} else {
			out[b] = src[b]
		}
	}
	return nil
}

// Histogram extracts the (measure, agg) view from collected statistics:
// the bar heights are ValuesInto's, beside copies of the measure's
// per-bin count, sum and shifted sum-of-squares stripes.
func (s *Stats) Histogram(measure, agg string) (*Histogram, error) {
	mi := s.MeasureIndex(measure)
	if mi < 0 {
		return nil, fmt.Errorf("view: stats have no measure %q", measure)
	}
	nb := s.Layout.NumBins()
	stripe := func(v []float64) []float64 { return slices.Clone(v[mi*nb : (mi+1)*nb]) }
	h := &Histogram{
		Labels: s.Layout.Labels,
		Shift:  s.Shifts[mi],
		Values: make([]float64, nb),
		Counts: stripe(s.Counts),
		Sums:   stripe(s.Sums),
		SumSqs: stripe(s.SumSqs),
	}
	if err := s.ValuesInto(mi, agg, h.Values); err != nil {
		return nil, err
	}
	return h, nil
}
