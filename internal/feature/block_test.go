package feature

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

// randomTable builds a random reference/target pair with adversarial
// structure for the block kernel: null-heavy measures, constant measures
// (accuracy's lossless branch), categorical and numeric dimensions, and a
// target subset small enough to leave empty bins.
func randomTable(t *testing.T, rng *rand.Rand) (ref, tgt *dataset.Table) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "num", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m1", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m2", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m3", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	ref = dataset.NewTable("ref", schema)
	rows := 120 + rng.Intn(400)
	cats := 2 + rng.Intn(6)
	nullRate := rng.Intn(6) // 0 = every 6th null … 5 = rare
	for i := 0; i < rows; i++ {
		m1 := dataset.Float(rng.NormFloat64()*5 + 1000) // large mean: shift matters
		if rng.Intn(2+nullRate) == 0 {
			m1 = dataset.Null
		}
		m3 := dataset.Float(42.0) // constant measure
		ref.MustAppendRow(
			dataset.StringVal(string(rune('a'+rng.Intn(cats)))),
			dataset.Float(rng.Float64()*50),
			m1,
			dataset.Int(int64(rng.Intn(40))),
			m3,
		)
	}
	var sel []int
	stride := 2 + rng.Intn(9)
	for i := 0; i < ref.NumRows(); i += stride {
		sel = append(sel, i)
	}
	tgt = ref.Subset("tgt", sel)
	return ref, tgt
}

// oracleRegistries returns the registries the block kernel is checked
// under: the standard eight, a registry with one custom feature, and that
// registry with quadratic products. Columns past the eighth ride the
// per-pair interface on top of a block fill.
func oracleRegistries(t *testing.T) map[string]*Registry {
	t.Helper()
	custom := StandardRegistry()
	if err := custom.Add(trendDiff); err != nil {
		t.Fatal(err)
	}
	quadratic := StandardRegistry()
	if err := quadratic.Add(trendDiff); err != nil {
		t.Fatal(err)
	}
	if err := AddQuadratic(quadratic); err != nil {
		t.Fatal(err)
	}
	return map[string]*Registry{"standard": StandardRegistry(), "custom": custom, "quadratic": quadratic}
}

// trendDiff is a custom feature that reads the pair's bar heights, not
// its distributions: the absolute difference between the target's and
// the reference's normalised trend slopes.
var trendDiff = Feature{Name: "TREND_DIFF", Compute: func(p *view.Pair) (float64, error) {
	return math.Abs(p.Target.TrendSlope() - p.Reference.TrendSlope()), nil
}}

// TestBlockFillMatchesPerPairQuick is the property test pinning the
// layout-block fill bit-identical to the per-pair oracle: across random
// tables, null patterns and bin configurations, the exact and α-sampled
// matrices must match perPairMatrix float for float — for the standard,
// custom and quadratic registries alike.
func TestBlockFillMatchesPerPairQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	regs := oracleRegistries(t)
	names := []string{"standard", "custom", "quadratic"}
	for trial := 0; trial < 12; trial++ {
		ref, tgt := randomTable(t, rng)
		cfg := view.SpaceConfig{BinCounts: []int{2 + rng.Intn(4), 6 + rng.Intn(6)}}
		name := names[trial%len(names)]
		reg := regs[name]
		compare := func(block *Matrix, perPair [][]float64) {
			t.Helper()
			if len(block.Rows) != len(perPair) {
				t.Fatalf("trial %d: %d vs %d rows", trial, len(block.Rows), len(perPair))
			}
			for i := range block.Rows {
				for j := range block.Rows[i] {
					if math.Float64bits(block.Rows[i][j]) != math.Float64bits(perPair[i][j]) {
						t.Fatalf("trial %d (%s): %s feature %q: block %v != per-pair %v",
							trial, name, block.Specs[i], block.Names[j], block.Rows[i][j], perPair[i][j])
					}
				}
			}
		}
		gBlock, err := view.NewGenerator(ref, tgt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gPair, err := view.NewGenerator(ref, tgt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		block, err := ComputeWorkers(gBlock, reg, 0)
		if err != nil {
			t.Fatal(err)
		}
		perPair, err := perPairMatrix(gPair, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		compare(block, perPair)

		alpha := 0.1 + rng.Float64()*0.5
		blockP, err := ComputePartialWorkersCtx(context.Background(), gBlock, reg, alpha, 0)
		if err != nil {
			t.Fatal(err)
		}
		perPairP, err := perPairMatrix(gPair, reg, ref.SampleRows(alpha))
		if err != nil {
			t.Fatal(err)
		}
		compare(blockP, perPairP)
	}
}

// familiesOf groups row indices by (dimension, bins, measure).
func familiesOf(specs []view.Spec) [][]int {
	type key struct {
		dim     string
		bins    int
		measure string
	}
	order := make(map[key]int)
	var fams [][]int
	for i, s := range specs {
		k := key{s.Dimension, s.Bins, s.Measure}
		fi, ok := order[k]
		if !ok {
			fi = len(fams)
			order[k] = fi
			fams = append(fams, nil)
		}
		fams[fi] = append(fams[fi], i)
	}
	return fams
}

// TestRefreshFamilyMatchesRefreshRow pins the batched refresh to the
// per-row one: refreshing a family in one call must produce rows
// bit-identical to RefreshRow on each member, flip the same Exact flags,
// and bump the version counter.
func TestRefreshFamilyMatchesRefreshRow(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ref, tgt := randomTable(t, rng)
	cfg := view.SpaceConfig{BinCounts: []int{3, 5}}
	build := func(reg *Registry) *Matrix {
		t.Helper()
		g, err := view.NewGenerator(ref, tgt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ComputePartialWorkersCtx(context.Background(), g, reg, 0.25, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, reg := range oracleRegistries(t) {
		fam, row := build(reg), build(reg)
		if fam.Version() != 0 {
			t.Fatalf("%s: fresh matrix version %d", name, fam.Version())
		}
		for _, idxs := range familiesOf(fam.Specs) {
			before := fam.Version()
			if err := fam.RefreshFamily(idxs); err != nil {
				t.Fatal(err)
			}
			if fam.Version() != before+1 {
				t.Errorf("%s: family refresh bumped version %d → %d", name, before, fam.Version())
			}
			for _, i := range idxs {
				if err := row.RefreshRow(i); err != nil {
					t.Fatal(err)
				}
				if !fam.Exact[i] || !row.Exact[i] {
					t.Fatalf("%s: row %d not exact after refresh", name, i)
				}
				for j := range fam.Rows[i] {
					if math.Float64bits(fam.Rows[i][j]) != math.Float64bits(row.Rows[i][j]) {
						t.Fatalf("%s: %s feature %q: family %v != row %v",
							name, fam.Specs[i], fam.Names[j], fam.Rows[i][j], row.Rows[i][j])
					}
				}
			}
		}
		// Re-refreshing an exact family is a no-op and must not bump.
		v := fam.Version()
		if err := fam.RefreshFamily(familiesOf(fam.Specs)[0]); err != nil {
			t.Fatal(err)
		}
		if fam.Version() != v {
			t.Errorf("%s: no-op refresh bumped version", name)
		}
	}
}

func TestRefreshFamilyRejectsMixedFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	ref, tgt := randomTable(t, rng)
	g, err := view.NewGenerator(ref, tgt, view.SpaceConfig{BinCounts: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ComputePartialWorkersCtx(context.Background(), g, StandardRegistry(), 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	fams := familiesOf(m.Specs)
	if len(fams) < 2 {
		t.Fatal("need at least two families")
	}
	mixed := []int{fams[0][0], fams[1][0]}
	if err := m.RefreshFamily(mixed); err == nil {
		t.Error("mixed-family refresh should fail")
	}
	if err := m.RefreshFamily([]int{-1}); err == nil {
		t.Error("out-of-range index should fail")
	}
	if err := m.RefreshFamily(nil); err != nil {
		t.Errorf("empty refresh: %v", err)
	}
}

// TestFeatureBlockAllocations pins the allocation count of a warm family
// refresh (in the style of TestBinIndexAllocations): with the family's
// statistics cached and rows already sized, RefreshFamily should cost a
// handful of bookkeeping allocations — scratch buffers, the measure-block
// map, the todo list — not the per-view Histogram/Distribution/vector
// allocations of the per-pair path, which grow with family size.
func TestFeatureBlockAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ref, tgt := randomTable(t, rng)
	g, err := view.NewGenerator(ref, tgt, view.SpaceConfig{BinCounts: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ComputePartialWorkersCtx(context.Background(), g, StandardRegistry(), 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	fam := familiesOf(m.Specs)[0]
	if len(fam) < 5 {
		t.Fatalf("family has %d views, want the full aggregate set", len(fam))
	}
	// Warm the focused stats caches and size the rows.
	if err := m.RefreshFamily(fam); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, i := range fam {
			m.Exact[i] = false
		}
		if err := m.RefreshFamily(fam); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: todo slice + blockScratch's four buffers + the measure-block
	// map. The per-pair path costs >20 allocations per view, so a family
	// of 5+ blowing past this bound means the block path regressed.
	if allocs > 12 {
		t.Errorf("warm family refresh allocates %.0f times, want ≤ 12", allocs)
	}
}
