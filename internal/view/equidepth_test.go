package view

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viewseeker/internal/dataset"
)

// skewedTable builds a numeric dimension with a heavy right skew: most
// values near 0, a long tail.
func skewedTable(rng *rand.Rand, rows int) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "z", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	t := dataset.NewTable("skew", schema)
	for i := 0; i < rows; i++ {
		v := rng.ExpFloat64() // exponential: heavily skewed
		t.MustAppendRow(dataset.Float(v), dataset.Float(rng.Float64()))
	}
	return t
}

func TestEqualDepthBalancesSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := skewedTable(rng, 10_000)

	width, err := ComputeLayout(tab, "z", 4)
	if err != nil {
		t.Fatal(err)
	}
	depth, err := ComputeLayoutEqualDepth(tab, "z", 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(l *BinLayout) []float64 {
		s, err := CollectStats(tab, l, []string{"m"}, nil, binIndex(t, tab, l))
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Histogram("m", "COUNT")
		if err != nil {
			t.Fatal(err)
		}
		return h.Values
	}
	imbalance := func(c []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range c {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return hi / math.Max(lo, 1)
	}
	wImb, dImb := imbalance(counts(width)), imbalance(counts(depth))
	if dImb >= wImb {
		t.Errorf("equal-depth imbalance %.1f should beat equal-width %.1f on skewed data", dImb, wImb)
	}
	if dImb > 1.5 {
		t.Errorf("equal-depth bins imbalance = %.2f, want near 1", dImb)
	}
	// All rows fall into some bin.
	total := 0.0
	for _, v := range counts(depth) {
		total += v
	}
	if total != float64(tab.NumRows()) {
		t.Errorf("equal-depth covered %v of %d rows", total, tab.NumRows())
	}
}

func TestEqualDepthBinOfMatchesEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := skewedTable(rng, 500)
		l, err := ComputeLayoutEqualDepth(tab, "z", 5)
		if err != nil {
			t.Fatal(err)
		}
		col := tab.Column("z")
		for r := 0; r < tab.NumRows(); r++ {
			b := l.BinOf(col, r)
			if b < 0 || b >= l.NumBins() {
				return false
			}
			v, _ := col.Float(r)
			// The value must be inside its bin's edge interval.
			if v < l.edges[b] || (b+1 < len(l.edges) && v >= l.edges[b+1] && b != l.NumBins()-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEqualDepthDuplicateBoundariesCollapse(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "z", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	tab := dataset.NewTable("t", schema)
	// 90% of values identical: most quantile boundaries coincide.
	for i := 0; i < 100; i++ {
		v := 1.0
		if i >= 90 {
			v = float64(i)
		}
		tab.MustAppendRow(dataset.Float(v), dataset.Float(0))
	}
	l, err := ComputeLayoutEqualDepth(tab, "z", 5)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumBins() >= 5 {
		t.Errorf("bins = %d, duplicates should collapse below 5", l.NumBins())
	}
	if l.NumBins() < 1 {
		t.Errorf("bins = %d", l.NumBins())
	}
}

func TestEqualDepthErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tab := randomTable(rng, 50)
	if _, err := ComputeLayoutEqualDepth(tab, "cat", 3); err == nil {
		t.Error("categorical dimension should fail")
	}
	if _, err := ComputeLayoutEqualDepth(tab, "num", 0); err == nil {
		t.Error("zero bins should fail")
	}
	if _, err := ComputeLayoutEqualDepth(tab, "ghost", 3); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestGeneratorEqualDepthOption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := skewedTable(rng, 2000)
	var rows []int
	for i := 0; i < 2000; i += 4 {
		rows = append(rows, i)
	}
	tgt := ref.Subset("tgt", rows)
	g, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{4}, EqualDepth: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Pair(Spec{Dimension: "z", Measure: "m", Agg: "COUNT", Bins: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Reference counts near-balanced under equal depth.
	for _, v := range p.Reference.Values {
		if v < 300 || v > 700 {
			t.Errorf("equal-depth reference bin count = %v, want ~500", v)
		}
	}
}
