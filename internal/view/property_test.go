package view

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viewseeker/internal/dataset"
)

// randomTable builds a table with one categorical and one numeric
// dimension and two measures, with some NULLs sprinkled in.
func randomTable(rng *rand.Rand, rows int) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "num", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m1", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m2", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
	)
	t := dataset.NewTable("rt", schema)
	for i := 0; i < rows; i++ {
		m1 := dataset.Float(rng.NormFloat64() * 5)
		if rng.Intn(10) == 0 {
			m1 = dataset.Null
		}
		t.MustAppendRow(
			dataset.StringVal(string(rune('a'+rng.Intn(4)))),
			dataset.Float(rng.Float64()*100),
			m1,
			dataset.Int(int64(rng.Intn(50))),
		)
	}
	return t
}

// TestBinIndexMatchesBinOf checks the dictionary-encoded bins agree with
// the per-row lookup for both layout kinds.
func TestBinIndexMatchesBinOf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, 200)
		for _, spec := range []struct {
			dim  string
			bins int
		}{{"cat", 0}, {"num", 4}} {
			layout, err := computeLayout(tab, spec.dim, spec.bins)
			if err != nil {
				t.Fatal(err)
			}
			bins := binIndex(t, tab, layout)
			col := tab.Column(spec.dim)
			for r := 0; r < tab.NumRows(); r++ {
				if int(bins[r]) != layout.BinOf(col, r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCollectStatsIndexedEquivalence checks the all-rows scan (rows ==
// nil) produces exactly the statistics of the same scan with every row
// listed, and that a bin index not covering the table is rejected.
func TestCollectStatsIndexedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := randomTable(rng, 500)
	layout, err := computeLayout(tab, "cat", 0)
	if err != nil {
		t.Fatal(err)
	}
	bins := binIndex(t, tab, layout)
	all, err := CollectStats(tab, layout, []string{"m1", "m2"}, nil, bins)
	if err != nil {
		t.Fatal(err)
	}
	every := make([]int, tab.NumRows())
	for i := range every {
		every[i] = i
	}
	listed, err := CollectStats(tab, layout, []string{"m1", "m2"}, every, bins)
	if err != nil {
		t.Fatal(err)
	}
	if err := statsEqual(all, listed); err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][]int{nil, {0}} {
		if _, err := CollectStats(tab, layout, []string{"m1"}, rows, bins[:10]); err == nil {
			t.Errorf("short bin index with rows %v should fail", rows)
		}
	}
}

// TestStatsAdditivity: stats over two disjoint row subsets must sum to
// stats over their union (counts/sums/sumsqs; min/max combine as min/max).
func TestStatsAdditivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, 300)
		layout, err := computeLayout(tab, "cat", 0)
		if err != nil {
			t.Fatal(err)
		}
		var a, bRows []int
		for i := 0; i < tab.NumRows(); i++ {
			if i%2 == 0 {
				a = append(a, i)
			} else {
				bRows = append(bRows, i)
			}
		}
		bins := binIndex(t, tab, layout)
		sa, err := CollectStats(tab, layout, []string{"m1"}, a, bins)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := CollectStats(tab, layout, []string{"m1"}, bRows, bins)
		if err != nil {
			t.Fatal(err)
		}
		all, err := CollectStats(tab, layout, []string{"m1"}, nil, bins)
		if err != nil {
			t.Fatal(err)
		}
		for bin := 0; bin < layout.NumBins(); bin++ {
			i := all.Index(0, bin)
			if sa.Counts[i]+sb.Counts[i] != all.Counts[i] {
				return false
			}
			if math.Abs(sa.Sums[i]+sb.Sums[i]-all.Sums[i]) > 1e-9 {
				return false
			}
			if math.Abs(sa.SumSqs[i]+sb.SumSqs[i]-all.SumSqs[i]) > 1e-9 {
				return false
			}
			if all.Counts[i] > 0 {
				if math.Min(sa.Mins[i], sb.Mins[i]) != all.Mins[i] {
					return false
				}
				if math.Max(sa.Maxs[i], sb.Maxs[i]) != all.Maxs[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDistributionSumsToOne: every histogram's distribution is a proper
// probability distribution.
func TestDistributionSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := randomTable(rng, 150)
		layout, err := computeLayout(tab, "num", 3)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := CollectStats(tab, layout, []string{"m1", "m2"}, nil, binIndex(t, tab, layout))
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range Aggregates {
			h, err := stats.Histogram("m2", agg)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, p := range h.Distribution() {
				if p < 0 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFamilyStatsMatchesLayoutStats: the narrow refresh scan must produce
// exactly the same pair as the all-measures scan.
func TestFamilyStatsMatchesLayoutStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := randomTable(rng, 400)
	var rows []int
	for i := 0; i < 400; i += 3 {
		rows = append(rows, i)
	}
	tgt := ref.Subset("tgt", rows)

	mk := func() *Generator {
		g, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gFull, gFocused := mk(), mk()
	for _, spec := range gFull.Specs() {
		pf, err := gFull.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		rs, ts, err := gFocused.FamilyStats(spec)
		if err != nil {
			t.Fatal(err)
		}
		// The reference side is the table version's, shared with gFull,
		// whose all-measures scan it reuses; the target side is scanned
		// narrowly.
		if len(ts.Measures) != 1 {
			t.Fatalf("%s: focused target scan carries measures %v, want just %q",
				spec, ts.Measures, spec.Measure)
		}
		pn, err := AssemblePair(spec, rs, ts)
		if err != nil {
			t.Fatal(err)
		}
		for b := range pf.Target.Values {
			if pf.Target.Values[b] != pn.Target.Values[b] ||
				pf.Reference.Values[b] != pn.Reference.Values[b] ||
				pf.Target.SumSqs[b] != pn.Target.SumSqs[b] {
				t.Fatalf("focused pair differs for %s at bin %d", spec, b)
			}
		}
	}
}

// statsEqual reports whether two Stats over the same layout and measure
// set are bit-identical.
func statsEqual(a, b *Stats) error {
	if len(a.Counts) != len(b.Counts) {
		return fmt.Errorf("stats sized %d vs %d", len(a.Counts), len(b.Counts))
	}
	for m := range a.Measures {
		for bin := 0; bin < a.Layout.NumBins(); bin++ {
			i := a.Index(m, bin)
			if a.Counts[i] != b.Counts[i] || a.Sums[i] != b.Sums[i] ||
				a.SumSqs[i] != b.SumSqs[i] || a.Mins[i] != b.Mins[i] ||
				a.Maxs[i] != b.Maxs[i] {
				return fmt.Errorf("stats differ at measure %q bin %d", a.Measures[m], bin)
			}
		}
	}
	return nil
}

// kernelTable builds a table that exercises every kernel path: string,
// bool, float and int dimensions (with NULLs), a constant numeric
// dimension (degenerate layout), and float/int/bool measures including a
// constant one — with NULLs sprinkled across dimension and measure cells.
func kernelTable(rng *rand.Rand, rows int) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "flag", Kind: dataset.KindBool, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "num", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "numint", Kind: dataset.KindInt, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "constd", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m1", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m2", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "mconst", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "mbool", Kind: dataset.KindBool, Role: dataset.RoleMeasure},
	)
	t := dataset.NewTable("kt", schema)
	maybeNull := func(v dataset.Value) dataset.Value {
		if rng.Intn(8) == 0 {
			return dataset.Null
		}
		return v
	}
	// Labels sharing a first byte, plus an empty string, force the
	// categorical kernel off its first-byte fast path.
	cats := []string{"apple", "avocado", "banana", "cherry", ""}
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			maybeNull(dataset.StringVal(cats[rng.Intn(len(cats))])),
			maybeNull(dataset.Bool(rng.Intn(2) == 0)),
			maybeNull(dataset.Float(rng.NormFloat64()*10)),
			maybeNull(dataset.Int(int64(rng.Intn(30)))),
			dataset.Float(7.5),
			maybeNull(dataset.Float(rng.NormFloat64()*5)),
			maybeNull(dataset.Int(int64(rng.Intn(50)))),
			dataset.Float(3),
			maybeNull(dataset.Bool(rng.Intn(2) == 0)),
		)
	}
	return t
}

// kernelLayouts builds one layout per dimension kind over the reference
// table.
func kernelLayouts(t *testing.T, tab *dataset.Table) []*BinLayout {
	t.Helper()
	var out []*BinLayout
	for _, spec := range []struct {
		dim  string
		bins int
	}{{"cat", 0}, {"flag", 0}, {"num", 3}, {"numint", 4}, {"constd", 3}} {
		l, err := computeLayout(tab, spec.dim, spec.bins)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

// TestFlatKernelMatchesReference is the kernel property test: over
// randomized tables (NULLs, constant columns, bool/int/float/string
// dimensions) the columnar all-rows scan must produce
// Stats and Histograms bit-identical to the row-at-a-time reference
// implementation, including on a subset table with empty bins.
func TestFlatKernelMatchesReference(t *testing.T) {
	measures := []string{"m1", "m2", "mconst", "mbool"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := kernelTable(rng, 150+rng.Intn(150))
		// A sparse subset misses categories, so its stats have empty bins.
		var sel []int
		for i := 0; i < tab.NumRows(); i += 5 {
			sel = append(sel, i)
		}
		sub := tab.Subset("sub", sel)
		for _, layout := range kernelLayouts(t, tab) {
			for _, scanned := range []*dataset.Table{tab, sub} {
				bins := binIndex(t, scanned, layout)
				// The bin-index kernel must agree with per-row BinOf.
				dimCol := scanned.Column(layout.Dimension)
				for r := 0; r < scanned.NumRows(); r++ {
					if int(bins[r]) != layout.BinOf(dimCol, r) {
						t.Fatalf("dim %q row %d: bin index %d != BinOf %d",
							layout.Dimension, r, bins[r], layout.BinOf(dimCol, r))
					}
				}
				want, err := collectStatsReference(scanned, layout, measures, nil)
				if err != nil {
					t.Fatal(err)
				}
				indexed, err := CollectStats(scanned, layout, measures, nil, bins)
				if err != nil {
					t.Fatal(err)
				}
				if err := statsEqual(want, indexed); err != nil {
					t.Fatalf("dim %q kernel: %v", layout.Dimension, err)
				}
				for _, agg := range Aggregates {
					for _, m := range measures {
						hw, err := want.Histogram(m, agg)
						if err != nil {
							t.Fatal(err)
						}
						hg, err := indexed.Histogram(m, agg)
						if err != nil {
							t.Fatal(err)
						}
						for b := range hw.Values {
							if hw.Values[b] != hg.Values[b] || hw.Counts[b] != hg.Counts[b] ||
								hw.Sums[b] != hg.Sums[b] || hw.SumSqs[b] != hg.SumSqs[b] {
								t.Fatalf("dim %q %s(%s) bin %d differs", layout.Dimension, agg, m, b)
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestSampledIndexedMatchesDirect checks the α-pass gather (sampled scan
// through the cached full-table bin index) against the reference's direct
// re-binning scan of the same rows.
func TestSampledIndexedMatchesDirect(t *testing.T) {
	measures := []string{"m1", "m2", "mconst", "mbool"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := kernelTable(rng, 200+rng.Intn(100))
		rows := tab.SampleRows(0.1 + rng.Float64()*0.5)
		for _, layout := range kernelLayouts(t, tab) {
			gathered, err := CollectStats(tab, layout, measures, rows, binIndex(t, tab, layout))
			if err != nil {
				t.Fatal(err)
			}
			want, err := collectStatsReference(tab, layout, measures, rows)
			if err != nil {
				t.Fatal(err)
			}
			if err := statsEqual(want, gathered); err != nil {
				t.Fatalf("dim %q sampled-indexed: %v", layout.Dimension, err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestFamilyStatsOutsideSpace rejects unknown specs.
func TestFamilyStatsOutsideSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := randomTable(rng, 50)
	tgt := ref.Subset("tgt", []int{0, 1, 2})
	g, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.FamilyStats(Spec{Dimension: "cat", Measure: "m1", Agg: "SUM", Bins: 77}); err == nil {
		t.Error("expected out-of-space error")
	}
}
