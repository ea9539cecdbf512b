package view

import (
	"fmt"
	"math"
	"sort"

	"viewseeker/internal/dataset"
)

// BinLayout fixes the bin structure of one dimension so target and
// reference histograms align. Categorical layouts enumerate the reference
// dataset's distinct values; numeric layouts split the reference range
// into equal-width bins, or into equal-depth (quantile) bins when built
// with ComputeLayoutEqualDepth.
type BinLayout struct {
	Dimension string
	Numeric   bool
	Labels    []string
	// Numeric equal-width layouts: [Lo, Hi) split into Bins equal bins.
	// Hi is nudged above the data maximum so the max value falls in the
	// last bin.
	Lo, Hi float64
	Bins   int
	// Numeric equal-depth layouts: bin i covers [edges[i], edges[i+1]),
	// with the last bin closed above. nil for equal-width layouts.
	edges []float64

	index map[string]int // categorical group key → bin
}

// ComputeLayout builds the layout for a dimension from the reference
// table. bins > 0 requests numeric equal-width binning and is required for
// numeric dimensions; categorical (string/bool) dimensions ignore it.
func ComputeLayout(ref *dataset.Table, dim string, bins int) (*BinLayout, error) {
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
		if hi <= lo {
			hi = lo + 1 // constant column: one degenerate range
		} else {
			hi = hi + (hi-lo)*1e-9 // include the max in the last bin
		}
		l := &BinLayout{Dimension: dim, Numeric: true, Lo: lo, Hi: hi, Bins: bins}
		width := (hi - lo) / float64(bins)
		for i := 0; i < bins; i++ {
			l.Labels = append(l.Labels, fmt.Sprintf("[%.3g,%.3g)", lo+float64(i)*width, lo+float64(i+1)*width))
		}
		return l, nil
	default:
		return nil, fmt.Errorf("view: dimension %q has unsupported kind %s", dim, col.Def.Kind)
	}
}

// ComputeLayoutEqualDepth builds an equal-depth (quantile) layout for a
// numeric dimension: bin boundaries are chosen so that the reference data
// spreads as evenly as possible across bins, which keeps heavily skewed
// dimensions readable where equal-width binning would dump everything
// into one bar. Duplicate quantile boundaries collapse, so the layout may
// end up with fewer bins than requested.
func ComputeLayoutEqualDepth(ref *dataset.Table, dim string, bins int) (*BinLayout, error) {
	col := ref.Column(dim)
	if col == nil {
		return nil, fmt.Errorf("view: table %q has no column %q", ref.Name, dim)
	}
	if col.Def.Kind != dataset.KindInt && col.Def.Kind != dataset.KindFloat {
		return nil, fmt.Errorf("view: equal-depth binning needs a numeric dimension, %q is %s", dim, col.Def.Kind)
	}
	if bins <= 0 {
		return nil, fmt.Errorf("view: equal-depth binning needs a positive bin count")
	}
	vals := make([]float64, 0, ref.NumRows())
	for r := 0; r < ref.NumRows(); r++ {
		// NaN is outside every numeric layout (binOfFloat), so it must not
		// place a boundary either: sorted first, it would collapse the fit.
		if v, ok := col.Float(r); ok && !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("view: dimension %q has no numeric values", dim)
	}
	sort.Float64s(vals)
	// Interior quantile boundaries, deduplicated.
	edges := []float64{vals[0]}
	for i := 1; i < bins; i++ {
		q := vals[i*len(vals)/bins]
		if q > edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	top := vals[len(vals)-1]
	if top <= edges[len(edges)-1] {
		top = edges[len(edges)-1] + 1
	} else {
		top += (top - vals[0]) * 1e-9 // include the max in the last bin
	}
	edges = append(edges, top)
	l := &BinLayout{Dimension: dim, Numeric: true, Lo: edges[0], Hi: top, Bins: len(edges) - 1, edges: edges}
	for i := 0; i+1 < len(edges); i++ {
		l.Labels = append(l.Labels, fmt.Sprintf("[%.3g,%.3g)", edges[i], edges[i+1]))
	}
	return l, nil
}

// NumBins returns the layout's bin count.
func (l *BinLayout) NumBins() int { return len(l.Labels) }

// BinOf maps one cell to its bin index, or -1 for NULLs, NaNs and values
// outside the layout (e.g. a categorical value present in DQ but absent
// from DR — impossible when DQ ⊆ DR, but guarded anyway).
func (l *BinLayout) BinOf(col *dataset.Column, row int) int {
	if col.IsNull(row) {
		return -1
	}
	if !l.Numeric {
		if i, ok := l.index[col.GroupKey(row)]; ok {
			return i
		}
		return -1
	}
	f, ok := col.Float(row)
	if !ok {
		return -1
	}
	return l.binOfFloat(f)
}

// binOfFloat maps a numeric value to its bin, or -1 outside [Lo, Hi). It
// is the single binning expression shared by BinOf and the columnar
// bin-index kernel, so the two can never disagree on boundary rounding.
// NaN is outside every layout, like NULL: it fails both range tests.
func (l *BinLayout) binOfFloat(f float64) int {
	if !(f >= l.Lo && f < l.Hi) {
		if f == l.Hi { // degenerate constant-column layout
			return l.Bins - 1
		}
		return -1
	}
	if l.edges != nil {
		// Equal-depth: binary search the boundary list.
		i := sort.SearchFloat64s(l.edges, f)
		// SearchFloat64s returns the first edge ≥ f; bin i covers
		// [edges[i], edges[i+1]), so an exact boundary hit belongs to the
		// bin starting there.
		if i < len(l.edges) && l.edges[i] == f {
			if i == len(l.edges)-1 {
				return l.Bins - 1
			}
			return i
		}
		return i - 1
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

// BinIndex materialises the bin of every row of a table under a layout —
// a dictionary-encoded dimension column. Scans that reuse it avoid the
// per-row map lookup that otherwise dominates categorical grouping.
// Entries are -1 for NULLs and out-of-layout values.
func BinIndex(t *dataset.Table, layout *BinLayout) ([]int32, error) {
	dimCol := t.Column(layout.Dimension)
	if dimCol == nil {
		return nil, fmt.Errorf("view: table %q has no column %q", t.Name, layout.Dimension)
	}
	bins := make([]int32, t.NumRows())
	layout.fillBins(dimCol, bins)
	return bins, nil
}

// BinIndexAll materialises the bin index of every supplied layout — all
// bin configurations of one dimension — in a single pass over the
// dimension column. Each result is exactly BinIndex's for that layout;
// fusing the pass means a multi-configuration numeric dimension pays one
// column read and one null test per row instead of one per configuration.
func BinIndexAll(t *dataset.Table, layouts []*BinLayout) ([][]int32, error) {
	if len(layouts) == 0 {
		return nil, nil
	}
	dim := layouts[0].Dimension
	for _, l := range layouts[1:] {
		if l.Dimension != dim {
			return nil, fmt.Errorf("view: BinIndexAll layouts mix dimensions %q and %q", dim, l.Dimension)
		}
	}
	dimCol := t.Column(dim)
	if dimCol == nil {
		return nil, fmt.Errorf("view: table %q has no column %q", t.Name, dim)
	}
	out := make([][]int32, len(layouts))
	for i := range out {
		out[i] = make([]int32, t.NumRows())
	}
	allNumeric := true
	for _, l := range layouts {
		if !l.Numeric {
			allNumeric = false
			break
		}
	}
	if allNumeric && len(layouts) > 1 {
		vals, nulls, ok := dimCol.NumericView()
		if !ok {
			// fillBins's rule for a dimension with no numeric view: every
			// row is outside every layout.
			for i := range out {
				for r := range out[i] {
					out[i][r] = -1
				}
			}
			return out, nil
		}
		for r := range vals {
			if isNull(nulls, r) {
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
		return out, nil
	}
	for i, l := range layouts {
		l.fillBins(dimCol, out[i])
	}
	return out, nil
}

// fillBins is the columnar bin-index kernel: it switches on the dimension
// column's kind once and walks the backing slice directly, instead of
// paying BinOf's kind switch — and, for categorical dimensions, GroupKey's
// boxing — once per row. Every path produces exactly BinOf's result (the
// bin-index property test holds the two together).
func (l *BinLayout) fillBins(col *dataset.Column, bins []int32) {
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
				for r := range bins {
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
			for r := range bins {
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
			for r := range bins {
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
			for r := range bins {
				bins[r] = int32(l.BinOf(col, r))
			}
		}
		return
	}
	vals, nulls, ok := col.NumericView()
	if !ok {
		for r := range bins {
			bins[r] = -1
		}
		return
	}
	for r := range bins {
		if isNull(nulls, r) {
			bins[r] = -1
			continue
		}
		bins[r] = int32(l.binOfFloat(vals[r]))
	}
}

// CollectStats scans the table (restricted to rows, or all rows when rows
// is nil) and accumulates per-bin statistics for every measure.
func CollectStats(t *dataset.Table, layout *BinLayout, measures []string, rows []int) (*Stats, error) {
	return collectStats(t, layout, measures, rows, nil)
}

// CollectStatsIndexed is CollectStats over all rows using a precomputed
// bin index (from BinIndex), skipping the per-row bin lookup.
func CollectStatsIndexed(t *dataset.Table, layout *BinLayout, measures []string, bins []int32) (*Stats, error) {
	if len(bins) != t.NumRows() {
		return nil, fmt.Errorf("view: bin index has %d entries for %d rows", len(bins), t.NumRows())
	}
	return collectStats(t, layout, measures, nil, bins)
}

// CollectStatsSampled is CollectStats over a row subset using a
// precomputed full-table bin index: an α-sample pass costs a gather
// through the index instead of re-binning the dimension column row by row.
func CollectStatsSampled(t *dataset.Table, layout *BinLayout, measures []string, rows []int, bins []int32) (*Stats, error) {
	if len(bins) != t.NumRows() {
		return nil, fmt.Errorf("view: bin index has %d entries for %d rows", len(bins), t.NumRows())
	}
	return collectStats(t, layout, measures, rows, bins)
}

func collectStats(t *dataset.Table, layout *BinLayout, measures []string, rows []int, bins []int32) (*Stats, error) {
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
	s := newStats(layout, measures)
	for m, col := range mCols {
		s.Shifts[m] = measureShift(col)
	}
	if bins == nil && rows == nil {
		// Full unindexed scan: bin the dimension once up front, then run
		// the indexed kernels — the same decode-once work a cached index
		// would have saved, paid exactly once.
		bins = make([]int32, t.NumRows())
		layout.fillBins(dimCol, bins)
	}
	if bins != nil {
		for m, col := range mCols {
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
	// Row subset without a bin index: per-row BinOf, but still decode-once
	// measure reads and flat accumulators.
	views := make([][]float64, len(mCols))
	nullsOf := make([][]uint64, len(mCols))
	numeric := make([]bool, len(mCols))
	for m, col := range mCols {
		views[m], nullsOf[m], numeric[m] = col.NumericView()
	}
	for _, r := range rows {
		b := layout.BinOf(dimCol, r)
		if b < 0 {
			continue
		}
		for m := range mCols {
			if !numeric[m] || isNull(nullsOf[m], r) {
				continue
			}
			v := views[m][r]
			d := v - s.Shifts[m]
			i := m*nb + b
			s.Counts[i]++
			s.Sums[i] += v
			s.SumSqs[i] += d * d
			if v < s.Mins[i] {
				s.Mins[i] = v
			}
			if v > s.Maxs[i] {
				s.Maxs[i] = v
			}
		}
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

// CollectStatsReference is the retained row-at-a-time reference
// implementation the columnar kernels are held bit-identical to: per-row
// BinOf (kind switch, group-key lookup), per-cell Column.Float, bin-major
// scratch accumulators — the pre-kernel scan path. The kernel property
// tests here and in internal/feature compare against it. rows == nil
// scans every row.
func CollectStatsReference(t *dataset.Table, layout *BinLayout, measures []string, rows []int) (*Stats, error) {
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
// into out — exactly the Values slice Histogram would build, without
// materialising the Histogram. len(out) must equal the layout's bin
// count. Empty bins are written as 0 (out is fully overwritten, so a
// reused scratch buffer carries no stale values). The per-bin aggregate
// expressions are Histogram's own, so the two stay bit-identical; the agg
// switch is hoisted out of the bin loop.
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

// Histogram extracts the (measure, agg) view from collected statistics.
func (s *Stats) Histogram(measure, agg string) (*Histogram, error) {
	mi := s.MeasureIndex(measure)
	if mi < 0 {
		return nil, fmt.Errorf("view: stats have no measure %q", measure)
	}
	nb := s.Layout.NumBins()
	h := &Histogram{
		Labels: s.Layout.Labels,
		Shift:  s.Shifts[mi],
		Values: make([]float64, nb),
		Counts: make([]float64, nb),
		Sums:   make([]float64, nb),
		SumSqs: make([]float64, nb),
	}
	base := mi * nb
	for b := 0; b < nb; b++ {
		c := s.Counts[base+b]
		h.Counts[b] = c
		h.Sums[b] = s.Sums[base+b]
		h.SumSqs[b] = s.SumSqs[base+b]
		if c == 0 {
			continue // empty bin: bar height 0 for every aggregate
		}
		switch agg {
		case "COUNT":
			h.Values[b] = c
		case "SUM":
			h.Values[b] = s.Sums[base+b]
		case "AVG":
			h.Values[b] = s.Sums[base+b] / c
		case "MIN":
			h.Values[b] = s.Mins[base+b]
		case "MAX":
			h.Values[b] = s.Maxs[base+b]
		default:
			return nil, fmt.Errorf("view: unknown aggregate %q", agg)
		}
	}
	return h, nil
}
