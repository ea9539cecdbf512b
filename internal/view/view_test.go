package view

import (
	"math"
	"reflect"
	"slices"
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
	l, err := computeLayout(ref, "cat", 0)
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
	l, err := computeLayout(ref, "z", 3)
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
	if _, err := computeLayout(ref, "nope", 0); err == nil {
		t.Error("expected unknown-column error")
	}
	if _, err := computeLayout(ref, "z", 0); err == nil {
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
	l, err := computeLayout(tab, "k", 3)
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
	l, _ := computeLayout(ref, "cat", 0)
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
	l, _ := computeLayout(ref, "cat", 0)
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
	rs, ts, err := g.NewSampledRun(ref.SampleRows(0.1)).LayoutStats(spec)
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
	// with the generator's histogram, over DR and over DQ.
	ref, tgt := demoTables(t)
	// A COUNT view counts the measure's non-NULL values, so its SQL must
	// too: d alternates a, b and m is NULL in rows 0, 3, 6 and 9, which
	// leaves three values in each group of five rows.
	nulls := dataset.NewTable("nulls", dataset.MustSchema(
		dataset.ColumnDef{Name: "d", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	))
	for i := 0; i < 10; i++ {
		m := dataset.Float(float64(i))
		if i%3 == 0 {
			m = dataset.Null
		}
		nulls.MustAppendRow(dataset.StringVal(string(rune('a'+i%2))), m)
	}
	for _, c := range []struct {
		ref, tgt *dataset.Table
		spec     Spec
	}{
		{ref, tgt, Spec{Dimension: "cat", Measure: "m", Agg: "SUM"}},
		{nulls, nulls.Subset("nulls_dq", []int{0, 1, 2, 3, 4, 5, 7}), Spec{Dimension: "d", Measure: "m", Agg: "COUNT"}},
	} {
		g, err := NewGenerator(c.ref, c.tgt, SpaceConfig{BinCounts: []int{3}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.Pair(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		query := c.spec.SQL(c.ref.Name, g.Layout(c.spec))
		requireSQLBars(t, c.spec, g.Layout(c.spec), query, mustQuery(t, c.ref, query), p.Reference)
		query = c.spec.SQL(c.tgt.Name, g.Layout(c.spec))
		requireSQLBars(t, c.spec, g.Layout(c.spec), query, mustQuery(t, c.tgt, query), p.Target)
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
	requireSQLBars(t, spec, g.Layout(spec), query, res, p.Reference)
	query = spec.SQL("tgt", g.Layout(spec))
	requireSQLBars(t, spec, g.Layout(spec), query, mustQuery(t, tgt, query), p.Target)
}

// TestSpecSQLMatchesGenerator holds every view to the SQL it is served
// as: for every spec of SYN 20k under {3, 4} bins and of DIAB 20k, the
// query Spec.SQL prints, run through the SQL engine over DR and over DQ,
// must return the generator's reference and target bar heights bit for
// bit. SQL returns only non-empty groups, so bins the view leaves empty
// are skipped, and a NULL dimension group (in no bin of the view) must
// not occur; every non-empty bin must appear exactly once.
func TestSpecSQLMatchesGenerator(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ref   *dataset.Table
		query string
		cfg   SpaceConfig
	}{
		{"SYN", dataset.GenerateSYN(dataset.SYNConfig{Rows: 20_000, Seed: 1}), dataset.SYNQuery,
			SpaceConfig{BinCounts: []int{3, 4}}},
		{"DIAB", dataset.GenerateDIAB(dataset.DIABConfig{Rows: 20_000, Seed: 1}), dataset.DIABQuery,
			SpaceConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tgt := mustQuery(t, tc.ref, tc.query)
			tgt.Name = "dq"
			g, err := NewGenerator(tc.ref, tgt, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range g.Specs() {
				p, err := g.Pair(spec)
				if err != nil {
					t.Fatal(err)
				}
				layout := g.Layout(spec)
				for _, side := range []struct {
					tab  *dataset.Table
					hist *Histogram
				}{{tc.ref, p.Reference}, {tgt, p.Target}} {
					query := spec.SQL(side.tab.Name, layout)
					requireSQLBars(t, spec, layout, query, mustQuery(t, side.tab, query), side.hist)
				}
			}
		})
	}
}

// requireSQLBars checks one executed view query against a histogram: each
// result row names a non-empty bin — by WIDTH_BUCKET number for numeric
// layouts, by label otherwise — whose bar height must equal the row's val
// bit for bit, and every non-empty bin must be named.
func requireSQLBars(t *testing.T, spec Spec, layout *BinLayout, query string, res *dataset.Table, h *Histogram) {
	t.Helper()
	keys, vals := res.Column(spec.Dimension), res.Column("val")
	if layout.Numeric {
		keys = res.Column("bin")
	}
	seen := make([]bool, h.Bins())
	for r := 0; r < res.NumRows(); r++ {
		if keys.IsNull(r) {
			t.Fatalf("%s: %q returns a NULL group, which the view bins nowhere", spec, query)
		}
		b := -1
		if layout.Numeric {
			if n, ok := keys.Float(r); ok {
				b = int(n) - 1
			}
		} else {
			b = slices.Index(layout.Labels, keys.GroupKey(r))
		}
		if b < 0 || b >= h.Bins() || seen[b] {
			t.Fatalf("%s: %q row %d names bin %v, not a fresh bin of %d", spec, query, r, keys.GroupKey(r), h.Bins())
		}
		seen[b] = true
		v, ok := vals.Float(r)
		if !ok || h.Counts[b] == 0 || math.Float64bits(v) != math.Float64bits(h.Values[b]) {
			t.Fatalf("%s: %q bin %d is %v (ok=%v), view has %v over %v rows", spec, query, b, v, ok, h.Values[b], h.Counts[b])
		}
	}
	for b, c := range h.Counts {
		if c > 0 && !seen[b] {
			t.Fatalf("%s: %q omits non-empty bin %d", spec, query, b)
		}
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

// TestCategoricalLayoutSkipsNull: a NULL lands in no bin, so a string or
// bool dimension holding NULLs gets no bin for them — an empty bar would
// change the distributions every feature reads — and an appended NULL
// leaves the fit unchanged.
func TestCategoricalLayoutSkipsNull(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "s", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "b", Kind: dataset.KindBool, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	tab := dataset.NewTable("t", schema)
	tab.MustAppendRow(dataset.StringVal("b"), dataset.Bool(true), dataset.Float(1))
	tab.MustAppendRow(dataset.Null, dataset.Null, dataset.Float(2))
	tab.MustAppendRow(dataset.StringVal("a"), dataset.Bool(false), dataset.Float(3))
	for dim, want := range map[string][]string{"s": {"a", "b"}, "b": {"false", "true"}} {
		l, err := computeLayout(tab, dim, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(l.Labels, want) {
			t.Errorf("%s: labels %q, want %q", dim, l.Labels, want)
		}
		g, err := NewGenerator(tab, tab, SpaceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.Pair(Spec{Dimension: dim, Measure: "m", Agg: "COUNT"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Reference.Values, []float64{1, 1}) {
			t.Errorf("%s: COUNT bars %v, want [1 1]", dim, p.Reference.Values)
		}
		appended, err := tab.WithAppended([][]dataset.Value{{dataset.Null, dataset.Null, dataset.Float(4)}})
		if err != nil {
			t.Fatal(err)
		}
		if !l.fitHolds(appended, tab.NumRows()) {
			t.Errorf("%s: an appended NULL changed the fit", dim)
		}
	}
}
