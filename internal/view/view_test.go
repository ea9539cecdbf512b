package view

import (
	"math"
	"strings"
	"testing"

	"viewseeker/internal/dataset"
)

// demoTables builds a reference table and a skewed target subset.
func demoTables(t *testing.T) (ref, tgt *dataset.Table) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "z", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	ref = dataset.NewTable("ref", schema)
	// cat cycles a,b,c; z spans [0,10); m = row index.
	for i := 0; i < 90; i++ {
		cat := string(rune('a' + i%3))
		ref.MustAppendRow(dataset.StringVal(cat), dataset.Float(float64(i%10)), dataset.Float(float64(i)))
	}
	// Target: only rows with cat "a" (30 rows).
	var rows []int
	for i := 0; i < 90; i++ {
		if i%3 == 0 {
			rows = append(rows, i)
		}
	}
	tgt = ref.Subset("tgt", rows)
	return ref, tgt
}

func TestComputeLayoutCategorical(t *testing.T) {
	ref, _ := demoTables(t)
	l, err := ComputeLayout(ref, "cat", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Numeric || l.NumBins() != 3 {
		t.Errorf("layout = %+v", l)
	}
	col := ref.Column("cat")
	if l.BinOf(col, 0) != 0 || l.BinOf(col, 1) != 1 || l.BinOf(col, 2) != 2 {
		t.Error("categorical BinOf wrong")
	}
}

func TestComputeLayoutNumeric(t *testing.T) {
	ref, _ := demoTables(t)
	l, err := ComputeLayout(ref, "z", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Numeric || l.NumBins() != 3 {
		t.Fatalf("layout = %+v", l)
	}
	col := ref.Column("z")
	// z values 0..9: bins [0,3), [3,6), [6,9+eps].
	if l.BinOf(col, 0) != 0 { // z=0
		t.Error("z=0 should be bin 0")
	}
	if l.BinOf(col, 9) != 2 { // z=9 (max) must land in the last bin
		t.Errorf("z=9 bin = %d, want 2", l.BinOf(col, 9))
	}
}

func TestComputeLayoutErrors(t *testing.T) {
	ref, _ := demoTables(t)
	if _, err := ComputeLayout(ref, "nope", 0); err == nil {
		t.Error("expected unknown-column error")
	}
	if _, err := ComputeLayout(ref, "z", 0); err == nil {
		t.Error("numeric dim without bins should fail")
	}
}

func TestComputeLayoutConstantColumn(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "k", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	tab := dataset.NewTable("t", schema)
	for i := 0; i < 5; i++ {
		tab.MustAppendRow(dataset.Float(7), dataset.Float(float64(i)))
	}
	l, err := ComputeLayout(tab, "k", 3)
	if err != nil {
		t.Fatal(err)
	}
	col := tab.Column("k")
	b := l.BinOf(col, 0)
	if b < 0 || b >= 3 {
		t.Errorf("constant column bin = %d", b)
	}
}

func TestCollectStatsAndHistogram(t *testing.T) {
	ref, _ := demoTables(t)
	l, _ := ComputeLayout(ref, "cat", 0)
	s, err := CollectStats(ref, l, []string{"m"}, nil, binIndex(t, ref, l))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Histogram("m", "COUNT")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if h.Values[b] != 30 {
			t.Errorf("count bin %d = %v, want 30", b, h.Values[b])
		}
	}
	avg, _ := s.Histogram("m", "AVG")
	// cat "a" rows have m = 0,3,...,87 → mean 43.5; "b": 1,4,...,88 → 44.5.
	if math.Abs(avg.Values[0]-43.5) > 1e-9 || math.Abs(avg.Values[1]-44.5) > 1e-9 {
		t.Errorf("avg = %v", avg.Values)
	}
	mn, _ := s.Histogram("m", "MIN")
	mx, _ := s.Histogram("m", "MAX")
	if mn.Values[0] != 0 || mx.Values[0] != 87 {
		t.Errorf("min/max = %v / %v", mn.Values[0], mx.Values[0])
	}
	sum, _ := s.Histogram("m", "SUM")
	if sum.Values[0] != 30*43.5 {
		t.Errorf("sum = %v", sum.Values[0])
	}
	if _, err := s.Histogram("m", "MEDIAN"); err == nil {
		t.Error("unknown aggregate should fail")
	}
	if _, err := s.Histogram("nope", "SUM"); err == nil {
		t.Error("unknown measure should fail")
	}
}

func TestCollectStatsRowSubset(t *testing.T) {
	ref, _ := demoTables(t)
	l, _ := ComputeLayout(ref, "cat", 0)
	s, err := CollectStats(ref, l, []string{"m"}, []int{0, 1, 2}, binIndex(t, ref, l))
	if err != nil {
		t.Fatal(err)
	}
	h, _ := s.Histogram("m", "COUNT")
	if h.Values[0] != 1 || h.Values[1] != 1 || h.Values[2] != 1 {
		t.Errorf("subset counts = %v", h.Values)
	}
}

func TestHistogramDistribution(t *testing.T) {
	h := &Histogram{Values: []float64{1, 3}}
	d := h.Distribution()
	if d[0] != 0.25 || d[1] != 0.75 {
		t.Errorf("distribution = %v", d)
	}
}

func TestEnumerateCategorical(t *testing.T) {
	ref, _ := demoTables(t)
	// Treat z as numeric dimension with 2 bin configs: cat contributes
	// 1×1×5, z contributes 2×1×5 → 15 specs.
	specs, err := Enumerate(ref, SpaceConfig{BinCounts: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 15 {
		t.Errorf("specs = %d, want 15", len(specs))
	}
}

func TestEnumerateDIABSize(t *testing.T) {
	tab := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 500, Seed: 1})
	specs, err := Enumerate(tab, SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 280 {
		t.Errorf("DIAB view space = %d, want 280 (Table 1)", len(specs))
	}
}

func TestEnumerateSYNSize(t *testing.T) {
	tab := dataset.GenerateSYN(dataset.SYNConfig{Rows: 500, Seed: 1})
	specs, err := Enumerate(tab, SpaceConfig{BinCounts: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 250 {
		t.Errorf("SYN view space = %d, want 250 (Table 1)", len(specs))
	}
}

func TestEnumerateErrors(t *testing.T) {
	schema := dataset.MustSchema(dataset.ColumnDef{Name: "x", Kind: dataset.KindInt})
	if _, err := Enumerate(dataset.NewTable("t", schema), SpaceConfig{}); err == nil {
		t.Error("no dims/measures should fail")
	}
}

func TestGeneratorPair(t *testing.T) {
	ref, tgt := demoTables(t)
	g, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Dimension: "cat", Measure: "m", Agg: "COUNT"}
	p, err := g.Pair(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: 30/30/30. Target: 30/0/0.
	if p.Reference.Values[0] != 30 || p.Target.Values[0] != 30 {
		t.Errorf("bin a: ref=%v tgt=%v", p.Reference.Values[0], p.Target.Values[0])
	}
	if p.Target.Values[1] != 0 || p.Target.Values[2] != 0 {
		t.Errorf("target bins b,c = %v, %v, want 0", p.Target.Values[1], p.Target.Values[2])
	}
	// Distributions diverge maximally: all target mass in bin 0.
	d := p.Target.Distribution()
	if d[0] != 1 {
		t.Errorf("target distribution = %v", d)
	}
}

func TestGeneratorSampled(t *testing.T) {
	ref, tgt := demoTables(t)
	g, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Dimension: "cat", Measure: "m", Agg: "COUNT"}
	rs, ts, err := g.NewSampledRun(ref.SampleRows(0.1), nil).LayoutStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := AssemblePair(spec, rs, ts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reference.TotalCount() >= 30 {
		t.Errorf("sampled reference count = %v, want ~9", p.Reference.TotalCount())
	}
	if p.Target.TotalCount() != 30 {
		t.Errorf("full target count = %v", p.Target.TotalCount())
	}
}

func TestGeneratorUnknownSpec(t *testing.T) {
	ref, tgt := demoTables(t)
	g, _ := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	if _, err := g.Pair(Spec{Dimension: "cat", Measure: "m", Agg: "COUNT", Bins: 99}); err == nil {
		t.Error("spec outside space should fail")
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Dimension: "age", Measure: "meds", Agg: "AVG"}
	if s.String() != "AVG(meds) BY age" {
		t.Errorf("String = %q", s.String())
	}
	s.Bins = 3
	if !strings.Contains(s.String(), "3bins") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSpecSQLAgainstEngine(t *testing.T) {
	// The SQL the spec prints must actually run on the engine and agree
	// with the generator's histogram.
	ref, tgt := demoTables(t)
	g, _ := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	spec := Spec{Dimension: "cat", Measure: "m", Agg: "SUM"}
	p, err := g.Pair(spec)
	if err != nil {
		t.Fatal(err)
	}
	query := spec.SQL("ref", g.Layout(spec))
	res := mustQuery(t, ref, query)
	if res.NumRows() != 3 {
		t.Fatalf("sql rows = %d", res.NumRows())
	}
	for i := 0; i < 3; i++ {
		got, _ := res.Column("val").Float(i)
		if math.Abs(got-p.Reference.Values[i]) > 1e-9 {
			t.Errorf("bin %d: sql=%v generator=%v", i, got, p.Reference.Values[i])
		}
	}
}

func TestSpecSQLNumericBins(t *testing.T) {
	ref, tgt := demoTables(t)
	g, _ := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	spec := Spec{Dimension: "z", Measure: "m", Agg: "COUNT", Bins: 3}
	p, err := g.Pair(spec)
	if err != nil {
		t.Fatal(err)
	}
	query := spec.SQL("ref", g.Layout(spec))
	res := mustQuery(t, ref, query)
	total := 0.0
	for i := 0; i < res.NumRows(); i++ {
		v, _ := res.Column("val").Float(i)
		total += v
	}
	if total != p.Reference.TotalCount() {
		t.Errorf("sql total = %v, generator total = %v", total, p.Reference.TotalCount())
	}
}

func TestPairValidate(t *testing.T) {
	p := &Pair{Target: &Histogram{Values: []float64{1}}, Reference: &Histogram{Values: []float64{1, 2}}}
	if err := p.Validate(); err == nil {
		t.Error("mismatched bins should fail validation")
	}
	p = &Pair{}
	if err := p.Validate(); err == nil {
		t.Error("missing histograms should fail validation")
	}
}

func TestPairRender(t *testing.T) {
	ref, tgt := demoTables(t)
	g, _ := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	p, err := g.Pair(Spec{Dimension: "cat", Measure: "m", Agg: "COUNT"})
	if err != nil {
		t.Fatal(err)
	}
	out := p.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "target") {
		t.Errorf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + 3 bins
		t.Errorf("render lines = %d:\n%s", len(lines), out)
	}
}
