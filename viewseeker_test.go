package viewseeker

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/view"
)

func facadeTable(t *testing.T) *Table {
	t.Helper()
	return dataset.GenerateDIAB(dataset.DIABConfig{Rows: 4000, Seed: 41})
}

func TestNewAndSessionLoop(t *testing.T) {
	table := facadeTable(t)
	s, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumViews() != 280 {
		t.Errorf("views = %d, want 280", s.NumViews())
	}
	if got := len(s.FeatureNames()); got != 8 {
		t.Errorf("features = %d", got)
	}
	if s.Target().NumRows() == 0 || s.Reference() != table {
		t.Error("tables wrong")
	}
	// Drive a few iterations with a deviation-loving user: label by EMD.
	emdIdx := -1
	for i, n := range s.FeatureNames() {
		if n == "EMD" {
			emdIdx = i
		}
	}
	if emdIdx < 0 {
		t.Fatal("no EMD feature")
	}
	// Ground truth: the user's interest is exactly the EMD feature,
	// normalised by the space maximum so labels stay in [0, 1] unclamped.
	emds := make([]float64, s.NumViews())
	maxEMD := 0.0
	for i := range emds {
		p, err := s.Pair(i)
		if err != nil {
			t.Fatal(err)
		}
		emds[i], _ = emdOf(p)
		if emds[i] > maxEMD {
			maxEMD = emds[i]
		}
	}
	for i := 0; i < 15; i++ {
		v, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feedback(v.Index, emds[v.Index]/maxEMD); err != nil {
			t.Fatal(err)
		}
	}
	if s.NumLabels() != 15 {
		t.Errorf("labels = %d", s.NumLabels())
	}
	top := s.TopK()
	if len(top) != 5 {
		t.Fatalf("topk = %d", len(top))
	}
	w, _ := s.Weights()
	if len(w) != 8 {
		t.Fatalf("weights = %v", w)
	}
	// The learned model must prefer high-EMD views: the recommended top-5
	// should carry more EMD than the space average. (Individual weights can
	// shift onto correlated features, so we check behaviour, not β.)
	var topEMD, allEMD float64
	for _, tv := range top {
		p, err := s.Pair(tv.Index)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := emdOf(p)
		topEMD += e
	}
	topEMD /= float64(len(top))
	for i := 0; i < s.NumViews(); i++ {
		p, err := s.Pair(i)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := emdOf(p)
		allEMD += e
	}
	allEMD /= float64(s.NumViews())
	if topEMD <= allEMD {
		t.Errorf("top-5 mean EMD %.3f not above space mean %.3f", topEMD, allEMD)
	}
	// TopK views should have high scores, sorted descending.
	for i := 1; i < len(top); i++ {
		if top[i-1].Score < top[i].Score {
			t.Error("topk not sorted")
		}
	}
}

func emdOf(p *Pair) (float64, error) {
	t := p.Target.Distribution()
	r := p.Reference.Distribution()
	d, c := 0.0, 0.0
	for i := range t {
		c += t[i] - r[i]
		if c < 0 {
			d -= c
		} else {
			d += c
		}
	}
	return d, nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, "SELECT 1", Options{}); err == nil {
		t.Error("nil table should fail")
	}
	table := facadeTable(t)
	if _, err := New(table, "not sql", Options{}); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := New(table, "SELECT * FROM diab WHERE race = 'Martian'", Options{}); err == nil {
		t.Error("empty DQ should fail")
	}
	if _, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{Strategy: "psychic"}); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestOptionsStrategies(t *testing.T) {
	table := facadeTable(t)
	for _, strat := range []string{"uncertainty", "random", "committee", ""} {
		s, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{Strategy: strat, K: 3, Seed: 2})
		if err != nil {
			t.Fatalf("strategy %q: %v", strat, err)
		}
		v, err := s.Next()
		if err != nil {
			t.Fatalf("strategy %q next: %v", strat, err)
		}
		if err := s.Feedback(v.Index, 0.9); err != nil {
			t.Fatalf("strategy %q feedback: %v", strat, err)
		}
	}
}

func TestAlphaPartialSession(t *testing.T) {
	table := facadeTable(t)
	s, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{K: 5, Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := s.Next()
	if err := s.Feedback(v.Index, 0.7); err != nil {
		t.Fatal(err)
	}
	if s.NumLabels() != 1 {
		t.Error("label not recorded")
	}
}

// TestFeatureRows: the accessor returns a private copy of the session's
// rows, in Specs × FeatureNames order. An exact session's rows are the
// exact matrix; an α-sampled session's rows start rough and turn exact
// as refinement reaches them.
func TestFeatureRows(t *testing.T) {
	table := facadeTable(t)
	const query = "SELECT * FROM diab WHERE diag_group = 'diabetes'"
	exact, err := New(table, query, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	rows := exact.FeatureRows()
	if len(rows) != exact.NumViews() || len(rows[0]) != len(exact.FeatureNames()) {
		t.Fatalf("rows are %d×%d, want %d×%d", len(rows), len(rows[0]), exact.NumViews(), len(exact.FeatureNames()))
	}
	gen, err := view.NewGenerator(table, exact.Target(), view.SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := feature.ComputeWorkers(gen, feature.StandardRegistry(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want.Rows) {
		t.Fatal("exact session's rows differ from the exact matrix")
	}
	rows[0][0] = -1
	if exact.FeatureRows()[0][0] == -1 {
		t.Fatal("FeatureRows exposed the session's own rows")
	}

	sampled, err := New(table, query, Options{K: 5, Alpha: 0.2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := func() int {
		n := 0
		for i, row := range sampled.FeatureRows() {
			if reflect.DeepEqual(row, want.Rows[i]) {
				n++
			}
		}
		return n
	}
	before := same()
	if before == len(want.Rows) {
		t.Fatal("an α-sampled session starts with every row exact")
	}
	v, err := sampled.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := sampled.Feedback(v.Index, 0.7); err != nil {
		t.Fatal(err)
	}
	if after := same(); after <= before {
		t.Errorf("exact rows %d → %d: refinement did not show in FeatureRows", before, after)
	}
}

func TestCustomFeatureOption(t *testing.T) {
	table := facadeTable(t)
	s, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{
		ExtraFeatures: []Feature{{
			Name:    "TARGET_ROWS",
			Compute: func(p *Pair) (float64, error) { return p.Target.TotalCount(), nil },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.FeatureNames()); got != 9 {
		t.Errorf("features = %d, want 9", got)
	}
}

func TestRenderAndPair(t *testing.T) {
	table := facadeTable(t)
	s, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Render(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "target") {
		t.Errorf("render:\n%s", out)
	}
	if _, err := s.Pair(-1); err == nil {
		t.Error("out-of-range pair should fail")
	}
	if _, err := s.Pair(99999); err == nil {
		t.Error("out-of-range pair should fail")
	}
}

func TestQueryHelper(t *testing.T) {
	table := facadeTable(t)
	res, err := Query(table, "SELECT COUNT(*) AS n FROM diab")
	if err != nil {
		t.Fatal(err)
	}
	if res.Column("n").Ints[0] != 4000 {
		t.Errorf("count = %d", res.Column("n").Ints[0])
	}
}

func TestCSVRoundTripViaFacade(t *testing.T) {
	table := facadeTable(t)
	dir := t.TempDir()
	path := dir + "/diab.csv"
	if err := SaveCSV(table, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != table.NumRows() {
		t.Errorf("rows = %d, want %d", back.NumRows(), table.NumRows())
	}
	// Roles are not stored in CSV; reassign and rebuild a session.
	if err := AssignRoles(back, table.Schema.Dimensions(), table.Schema.Measures()); err != nil {
		t.Fatal(err)
	}
	if _, err := New(back, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardFeatureNames(t *testing.T) {
	names := StandardFeatureNames()
	if len(names) != 8 || names[0] != "KL" || names[7] != "P_VALUE" {
		t.Errorf("names = %v", names)
	}
}

func TestNextViewsExhaustion(t *testing.T) {
	// Tiny space: 1 dim × 1 measure × 1 agg = 1 view; label it, then Next
	// must report exhaustion.
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "d", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	tab := dataset.NewTable("tiny", schema)
	for i := 0; i < 10; i++ {
		tab.MustAppendRow(dataset.StringVal(string(rune('a'+i%2))), dataset.Float(float64(i)))
	}
	s, err := New(tab, "SELECT * FROM tiny WHERE d = 'a'", Options{Aggs: []string{"COUNT"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feedback(v.Index, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err == nil {
		t.Error("exhausted space should error on Next")
	}
	vs, err := s.NextViews()
	if err != nil || len(vs) != 0 {
		t.Errorf("NextViews after exhaustion = %v, %v", vs, err)
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	table := facadeTable(t)
	const query = "SELECT * FROM diab WHERE diag_group = 'diabetes'"
	s1, err := New(table, query, Options{K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, err := s1.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Feedback(v.Index, float64(i)/5); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s1.Save(&buf); err != nil {
		t.Fatal(err)
	}

	s2, err := New(table, query, Options{K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.NumLabels() != 5 {
		t.Fatalf("restored labels = %d", s2.NumLabels())
	}
	t1, t2 := s1.TopK(), s2.TopK()
	for i := range t1 {
		if t1[i].Index != t2[i].Index {
			t.Fatalf("restored recommendation differs at rank %d", i)
		}
	}
	// Corrupt input fails cleanly.
	s3, _ := New(table, query, Options{K: 5})
	if err := s3.Load(strings.NewReader("{not json")); err == nil {
		t.Error("corrupt session should fail to load")
	}
}

func TestTopKDiverse(t *testing.T) {
	table := facadeTable(t)
	s, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		v, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feedback(v.Index, float64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	plain := s.TopK()
	same, err := s.TopKDiverse(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Index != same[i].Index {
			t.Fatalf("lambda=1 must reproduce TopK")
		}
	}
	diverse, err := s.TopKDiverse(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverse) != len(plain) {
		t.Fatalf("diverse topk length = %d", len(diverse))
	}
	if _, err := s.TopKDiverse(-1); err == nil {
		t.Error("bad lambda should fail")
	}
}

func TestFacadeSQL(t *testing.T) {
	table := facadeTable(t)
	s, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{})
	if err != nil {
		t.Fatal(err)
	}
	query, err := s.SQL(0)
	if err != nil {
		t.Fatal(err)
	}
	// The exported SQL must run on the engine against the same table.
	if _, err := Query(table, query); err != nil {
		t.Fatalf("exported SQL %q does not execute: %v", query, err)
	}
	if _, err := s.SQL(-1); err == nil {
		t.Error("out-of-range SQL should fail")
	}
}

func TestQuadraticOptionLearnsProductUtility(t *testing.T) {
	table := facadeTable(t)
	const query = "SELECT * FROM diab WHERE diag_group = 'diabetes'"
	// Hidden utility: KL·EMD — outside Eq. 4's linear family.
	target := func(s *Seeker, idx int) float64 {
		p, err := s.Pair(idx)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := emdOf(p)
		kl := klOf(p)
		return e * kl
	}
	run := func(quadratic bool) float64 {
		s, err := New(table, query, Options{K: 10, Seed: 3, Quadratic: quadratic})
		if err != nil {
			t.Fatal(err)
		}
		// Normalise labels by the max product over the space.
		maxT := 0.0
		truths := make([]float64, s.NumViews())
		for i := range truths {
			truths[i] = target(s, i)
			if truths[i] > maxT {
				maxT = truths[i]
			}
		}
		for i := 0; i < 25; i++ {
			v, err := s.Next()
			if err != nil {
				break
			}
			if err := s.Feedback(v.Index, truths[v.Index]/maxT); err != nil {
				t.Fatal(err)
			}
		}
		// Tie-aware top-10 hits against the true product utility.
		pred := s.TopK()
		sorted := append([]float64(nil), truths...)
		sort.Float64s(sorted)
		threshold := sorted[len(sorted)-10]
		hits := 0
		for _, v := range pred {
			if truths[v.Index] >= threshold-1e-9 {
				hits++
			}
		}
		return float64(hits) / 10
	}
	quad := run(true)
	if quad < 0.9 {
		t.Errorf("quadratic session precision = %.2f, want ≥ 0.9", quad)
	}
}

func klOf(p *Pair) float64 {
	tgt := p.Target.Distribution()
	ref := p.Reference.Distribution()
	d := 0.0
	for i := range tgt {
		if tgt[i] <= 0 {
			continue
		}
		q := ref[i]
		if q < 1e-9 {
			q = 1e-9
		}
		d += tgt[i] * math.Log(tgt[i]/q)
	}
	if d < 0 {
		return 0
	}
	return d
}

func TestStaticTopK(t *testing.T) {
	table := facadeTable(t)
	const query = "SELECT * FROM diab WHERE diag_group = 'diabetes'"
	top, err := StaticTopK(table, query, "EMD", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("topk = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Score < top[i].Score {
			t.Error("static topk not sorted by feature score")
		}
	}
	if top[0].Score <= 0 {
		t.Errorf("best EMD = %v, want > 0", top[0].Score)
	}
	if _, err := StaticTopK(table, query, "NOT_A_FEATURE", 5); err == nil {
		t.Error("unknown feature should fail")
	}
	if _, err := StaticTopK(table, "SELECT * FROM diab WHERE race = 'X'", "EMD", 5); err == nil {
		t.Error("empty DQ should fail")
	}
}
