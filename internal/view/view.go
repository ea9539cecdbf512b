package view

import (
	"fmt"
	"strings"

	"viewseeker/internal/metric"
)

// Aggregates is the aggregate-function set of the testbed (Table 1 lists
// five aggregation functions).
var Aggregates = []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

// Spec identifies one view: the (a, m, f) triple plus the bin count used
// to discretise numeric dimensions (0 means the dimension is categorical
// and gets one bin per distinct value).
type Spec struct {
	Dimension string
	Measure   string
	Agg       string
	Bins      int
}

// String renders the spec the way the tools print it, e.g.
// "AVG(num_medications) BY age_group" or "SUM(m1) BY d2/3bins".
func (s Spec) String() string {
	dim := s.Dimension
	if s.Bins > 0 {
		dim = fmt.Sprintf("%s/%dbins", s.Dimension, s.Bins)
	}
	return fmt.Sprintf("%s(%s) BY %s", s.Agg, s.Measure, dim)
}

// SQL returns the GROUP BY query computing this view over the named table.
// Numeric dimensions bin via WIDTH_BUCKET using the supplied layout range.
func (s Spec) SQL(table string, layout *BinLayout) string {
	agg := fmt.Sprintf("%s(%s)", s.Agg, s.Measure)
	if s.Bins > 0 && layout != nil && layout.Numeric {
		bucket := fmt.Sprintf("WIDTH_BUCKET(%s, %g, %g, %d)", s.Dimension, layout.Lo, layout.Hi, s.Bins)
		return fmt.Sprintf("SELECT %s AS bin, %s AS val FROM %s GROUP BY %s ORDER BY bin",
			bucket, agg, table, bucket)
	}
	return fmt.Sprintf("SELECT %s, %s AS val FROM %s GROUP BY %s ORDER BY %s",
		s.Dimension, agg, table, s.Dimension, s.Dimension)
}

// Histogram is one executed view: ordered bins with the aggregate value
// per bin (the bar heights) plus the raw per-bin measure statistics that
// the Accuracy and p-value utility components need.
type Histogram struct {
	Labels []string
	// Shift is the constant subtracted inside SumSqs (the measure's first
	// non-null value; see view.Stats). Consumers of SumSqs must pass it
	// alongside, e.g. to metric.Accuracy.
	Shift  float64
	Values []float64 // f(m) per bin
	Counts []float64 // rows per bin
	Sums   []float64 // Σ m per bin
	SumSqs []float64 // Σ (m−Shift)² per bin
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.Values) }

// Distribution normalises the bar heights into a probability distribution
// (Eq. 5). Negative bars carry no mass; an all-empty histogram normalises
// to uniform.
func (h *Histogram) Distribution() []float64 { return metric.Normalize(h.Values) }

// Pair is a target view with its aligned reference view (Figure 2): the
// same (a, m, f) computed over DQ and DR on identical bins.
type Pair struct {
	Spec      Spec
	Target    *Histogram
	Reference *Histogram
}

// Validate checks the two histograms share a bin layout.
func (p *Pair) Validate() error {
	if p.Target == nil || p.Reference == nil {
		return fmt.Errorf("view: pair %s missing a histogram", p.Spec)
	}
	if p.Target.Bins() != p.Reference.Bins() {
		return fmt.Errorf("view: pair %s has mismatched bins (%d vs %d)",
			p.Spec, p.Target.Bins(), p.Reference.Bins())
	}
	return nil
}

// RenderLine draws the pair as a single ASCII line chart over the ordered
// bins — the line-chart visualization type from the paper's future-work
// list, most meaningful for numeric (ordered) dimension layouts. Target
// points print as 'T', reference points as 'R', overlaps as '*'.
func (p *Pair) RenderLine(height int) string {
	if height <= 0 {
		height = 10
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (line)\n", p.Spec)
	maxVal := 0.0
	for _, v := range append(append([]float64{}, p.Target.Values...), p.Reference.Values...) {
		if v > maxVal {
			maxVal = v
		}
	}
	bins := p.Target.Bins()
	const colWidth = 8
	rowOf := func(v float64) int {
		if maxVal <= 0 {
			return height - 1
		}
		r := height - 1 - int(v/maxVal*float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", bins*colWidth))
	}
	for b := 0; b < bins; b++ {
		col := b*colWidth + 1
		tr, rr := rowOf(p.Target.Values[b]), rowOf(p.Reference.Values[b])
		if tr == rr {
			grid[tr][col] = '*'
		} else {
			grid[tr][col] = 'T'
			grid[rr][col] = 'R'
		}
	}
	for _, row := range grid {
		sb.Write(row)
		sb.WriteByte('\n')
	}
	for b := 0; b < bins; b++ {
		label := p.Target.Labels[b]
		if len(label) > colWidth {
			label = label[:colWidth]
		}
		fmt.Fprintf(&sb, "%-*s", colWidth, label)
	}
	sb.WriteString("\nT = target (DQ), R = reference (DR), * = both\n")
	return sb.String()
}

// TrendSlope fits a least-squares line through the histogram's bar heights
// over bin positions 0..b−1 and returns its slope, normalised by the mean
// bar height so views of different magnitudes compare. Explanations
// (internal/explain) use it to spot trend reversals.
func (h *Histogram) TrendSlope() float64 {
	n := float64(h.Bins())
	if n < 2 {
		return 0
	}
	var sumX, sumY, sumXY, sumXX float64
	for i, v := range h.Values {
		x := float64(i)
		sumX += x
		sumY += v
		sumXY += x * v
		sumXX += x * x
	}
	denom := n*sumXX - sumX*sumX
	if denom == 0 {
		return 0
	}
	slope := (n*sumXY - sumX*sumY) / denom
	mean := sumY / n
	if mean < 0 {
		mean = -mean
	}
	if mean < 1e-12 {
		return 0
	}
	return slope / mean
}

// Render writes a two-column ASCII rendering of the pair — the textual
// equivalent of the paper's Figure 2 side-by-side bar charts.
func (p *Pair) Render(width int) string {
	if width <= 0 {
		width = 28
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", p.Spec)
	maxVal := 0.0
	for _, v := range p.Target.Values {
		if v > maxVal {
			maxVal = v
		}
	}
	for _, v := range p.Reference.Values {
		if v > maxVal {
			maxVal = v
		}
	}
	labelW := 0
	for _, l := range p.Target.Labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	bar := func(v float64) string {
		if maxVal <= 0 {
			return ""
		}
		n := int(v / maxVal * float64(width))
		if n < 0 {
			n = 0
		}
		return strings.Repeat("#", n)
	}
	fmt.Fprintf(&sb, "%-*s | %-*s | %s\n", labelW, "bin", width, "target (DQ)", "reference (DR)")
	for i, l := range p.Target.Labels {
		fmt.Fprintf(&sb, "%-*s | %-*s | %s\n", labelW, l, width, bar(p.Target.Values[i]), bar(p.Reference.Values[i]))
	}
	return sb.String()
}
