package view

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"viewseeker/internal/dataset"
)

// appendedKernelTable generates one kernel-path-covering base table and
// appends an adversarial suffix to it: categoricals new to the base
// layouts (one sharing its first byte with base labels), the empty
// string, NaN and ±Inf numerics, values past the fitted ranges, and NULLs
// in every dimension. The suffix opens with one row of each special
// value, so every seed exercises them. from is the base row count.
func appendedKernelTable(t *testing.T, rng *rand.Rand) (base, appended *dataset.Table, from int) {
	t.Helper()
	from = 50 + rng.Intn(150)
	base = kernelTable(rng, from)
	pick := func(vals ...dataset.Value) dataset.Value { return vals[rng.Intn(len(vals))] }
	f := dataset.Float
	cats := []dataset.Value{dataset.StringVal("apple"), dataset.StringVal("avocado"),
		dataset.StringVal("banana"), dataset.StringVal(""), dataset.StringVal("apricot"),
		dataset.StringVal("zebra"), dataset.Null}
	nums := []dataset.Value{f(math.NaN()), f(math.Inf(1)), f(math.Inf(-1)), f(1e6), dataset.Null}
	var rows [][]dataset.Value
	for i := 0; i < len(nums)+len(cats)+rng.Intn(100); i++ {
		num := pick(f(rng.NormFloat64()*10), pick(nums...))
		if i < len(nums) {
			num = nums[i]
		}
		cat := pick(cats...)
		if i < len(cats) {
			cat = cats[i]
		}
		rows = append(rows, []dataset.Value{
			cat,
			pick(dataset.Bool(true), dataset.Bool(false), dataset.Null),
			num,
			pick(dataset.Int(int64(rng.Intn(60)-10)), dataset.Null),
			pick(f(7.5), f(8), f(9), f(math.NaN()), dataset.Null),
			pick(f(rng.NormFloat64()*5), dataset.Null),
			dataset.Int(int64(rng.Intn(50))),
			f(3),
			pick(dataset.Bool(true), dataset.Bool(false)),
		})
	}
	appended, err := base.WithAppended(rows)
	if err != nil {
		t.Fatal(err)
	}
	return base, appended, from
}

// kernelBundles returns the layout bundles ExtendBinIndexAll is called
// with, one per (dimension, binning): every bin configuration of a
// numeric dimension together — equal-width, and separately equal-depth,
// as a generator with EqualDepth set would fit them — and the single
// configuration of each categorical dimension.
func kernelBundles(t *testing.T, tab *dataset.Table) [][]*BinLayout {
	t.Helper()
	bundles := [][]*BinLayout{}
	for _, dim := range []string{"cat", "flag"} {
		l, err := ComputeLayout(tab, dim, 0)
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, []*BinLayout{l})
	}
	for _, dim := range []string{"num", "numint", "constd"} {
		for _, depth := range []bool{false, true} {
			var bundle []*BinLayout
			for _, bins := range []int{3, 4, 6} {
				var l *BinLayout
				var err error
				if depth {
					l, err = ComputeLayoutEqualDepth(tab, dim, bins)
				} else {
					l, err = ComputeLayout(tab, dim, bins)
				}
				if err != nil {
					t.Fatal(err)
				}
				bundle = append(bundle, l)
			}
			bundles = append(bundles, bundle)
		}
	}
	return bundles
}

// TestExtendMatchesRebuild is the IVM property test: over randomised
// tables and adversarial appends, append-then-extend must equal
// rebuild-from-scratch bit for bit — each multi-layout bin bundle entry
// for entry against BinIndexAll over the appended table, Stats across
// every accumulator array — with collectStatsReference over the
// post-append table as the stats oracle. Each layout's Drift must equal a
// per-row BinOf count: a non-null appended value is appended, and out of
// range when BinOf places it nowhere (so NaN is out of range); a NULL is
// neither. Layouts are pinned to the base, so appended values outside
// them exercise the bin -1 drop path on both sides.
func TestExtendMatchesRebuild(t *testing.T) {
	measures := []string{"m1", "m2", "mconst", "mbool"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base, appended, from := appendedKernelTable(t, rng)
		for _, bundle := range kernelBundles(t, base) {
			dim := bundle[0].Dimension
			old, err := BinIndexAll(base, bundle)
			if err != nil {
				t.Fatal(err)
			}
			ext, _, drift, err := ExtendBinIndexAll(appended, bundle, old, nil, from)
			if err != nil {
				t.Fatal(err)
			}
			full, err := BinIndexAll(appended, bundle)
			if err != nil {
				t.Fatal(err)
			}
			col := appended.Column(dim)
			for i, l := range bundle {
				for r, want := range full[i] {
					if ext[i][r] != want {
						t.Fatalf("dim %q/%d row %d: extended bin %d != rebuilt %d",
							dim, l.NumBins(), r, ext[i][r], want)
					}
				}
				var want Drift
				for r := from; r < appended.NumRows(); r++ {
					if col.IsNull(r) {
						continue
					}
					want.Appended++
					if l.BinOf(col, r) < 0 {
						want.OutOfRange++
					}
				}
				if drift[i] != want {
					t.Fatalf("dim %q/%d: drift %+v, per-row BinOf count %+v", dim, l.NumBins(), drift[i], want)
				}

				oldStats, err := CollectStats(base, l, measures, nil, old[i])
				if err != nil {
					t.Fatal(err)
				}
				extStats, _, ok, err := ExtendStats(appended, oldStats, ext[i], from)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("dim %q: shift drift on a base with non-null measures", dim)
				}
				rebuilt, err := CollectStats(appended, l, measures, nil, full[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := statsEqual(extStats, rebuilt); err != nil {
					t.Fatalf("dim %q/%d: extend vs rebuild: %v", dim, l.NumBins(), err)
				}
				oracle, err := collectStatsReference(appended, l, measures, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := statsEqual(extStats, oracle); err != nil {
					t.Fatalf("dim %q/%d: extend vs reference oracle: %v", dim, l.NumBins(), err)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestExtendStatsShiftDrift: a measure that is all-null in the base gets
// its variance shift from the first appended non-null, which re-anchors
// SumSqs — ExtendStats must refuse so the caller rebuilds.
func TestExtendStatsShiftDrift(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	base := dataset.NewTable("t", schema)
	base.MustAppendRow(dataset.StringVal("a"), dataset.Null)
	base.MustAppendRow(dataset.StringVal("b"), dataset.Null)
	layout, err := ComputeLayout(base, "cat", 0)
	if err != nil {
		t.Fatal(err)
	}
	oldBins := binIndex(t, base, layout)
	oldStats, err := CollectStats(base, layout, []string{"m"}, nil, oldBins)
	if err != nil {
		t.Fatal(err)
	}
	appended, err := base.WithAppended([][]dataset.Value{{dataset.StringVal("a"), dataset.Float(5)}})
	if err != nil {
		t.Fatal(err)
	}
	ext, _, _, err := ExtendBinIndexAll(appended, []*BinLayout{layout}, [][]int32{oldBins}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := ExtendStats(appended, oldStats, ext[0], 2); err != nil || ok {
		t.Fatalf("shift drift not detected: ok=%v err=%v", ok, err)
	}
	// An all-null append over the all-null base keeps shift 0: extendable.
	appended2, err := base.WithAppended([][]dataset.Value{{dataset.StringVal("a"), dataset.Null}})
	if err != nil {
		t.Fatal(err)
	}
	ext2, _, _, err := ExtendBinIndexAll(appended2, []*BinLayout{layout}, [][]int32{oldBins}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := ExtendStats(appended2, oldStats, ext2[0], 2); err != nil || !ok {
		t.Fatalf("all-null extension refused: ok=%v err=%v", ok, err)
	}
}

// TestApplyAppendMatchesScratch: a delta-extended generator must serve
// every pair bit-identically to scanning the appended tables from scratch
// under the same pinned layouts — which an ApplyAppend of a cold generator
// conveniently is (no cached artifacts to extend, so everything recomputes
// over the new tables).
func TestApplyAppendMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base, appended, _ := appendedKernelTable(t, rng)
	// Target: a filtered subset of the base, extended by the append's
	// matching rows — prefix-extension, like live query maintenance.
	filter := func(tab *dataset.Table) []int {
		col := tab.Column("m2")
		var sel []int
		for r := 0; r < tab.NumRows(); r++ {
			if v, ok := col.Float(r); ok && v >= 25 {
				sel = append(sel, r)
			}
		}
		return sel
	}
	baseTgt := base.Subset("dq", filter(base))
	newTgt := appended.Subset("dq", filter(appended))

	cfg := SpaceConfig{BinCounts: []int{3, 4}}
	warm, err := NewGenerator(base, baseTgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.WarmCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	delta, err := warm.ApplyAppend(appended, newTgt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewGenerator(base, baseTgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := cold.ApplyAppend(appended, newTgt)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range warm.Specs() {
		dp, err := delta.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := scratch.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, hp := range []struct{ d, s *Histogram }{{dp.Target, sp.Target}, {dp.Reference, sp.Reference}} {
			if hp.d.Shift != hp.s.Shift {
				t.Fatalf("spec %v: shift %g != %g", spec, hp.d.Shift, hp.s.Shift)
			}
			for b := range hp.d.Values {
				if hp.d.Values[b] != hp.s.Values[b] || hp.d.Counts[b] != hp.s.Counts[b] ||
					hp.d.Sums[b] != hp.s.Sums[b] || hp.d.SumSqs[b] != hp.s.SumSqs[b] {
					t.Fatalf("spec %v bin %d: delta pair differs from scratch", spec, b)
				}
			}
		}
	}
}

// TestDriftTracking: appended values outside a pinned numeric layout are
// counted as drift (nulls are not), the counts accumulate across
// ApplyAppend generations, and a fresh generator starts at zero.
func TestDriftTracking(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "d", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	base := dataset.NewTable("t", schema)
	for i := 0; i < 10; i++ {
		base.MustAppendRow(dataset.Float(float64(i)), dataset.Float(1))
	}
	layout, err := ComputeLayout(base, "d", 5) // pinned to [0, 9]
	if err != nil {
		t.Fatal(err)
	}
	oldBins := binIndex(t, base, layout)
	// 2 in range, 2 out of range, 1 null: drift is 2/4.
	rows := [][]dataset.Value{
		{dataset.Float(1), dataset.Float(1)},
		{dataset.Float(100), dataset.Float(1)},
		{dataset.Float(-5), dataset.Float(1)},
		{dataset.Null, dataset.Float(1)},
		{dataset.Float(3), dataset.Float(1)},
	}
	appended, err := base.WithAppended(rows)
	if err != nil {
		t.Fatal(err)
	}
	_, _, drift, err := ExtendBinIndexAll(appended, []*BinLayout{layout}, [][]int32{oldBins}, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if drift[0].Appended != 4 || drift[0].OutOfRange != 2 {
		t.Fatalf("drift = %+v, want {Appended:4 OutOfRange:2}", drift[0])
	}
	if r := drift[0].Rate(); r != 0.5 {
		t.Fatalf("rate = %g, want 0.5", r)
	}

	// Generator-level accumulation across two generations. The target is a
	// distinct table (all rows) so the reference-side caches — where drift
	// is counted — are exercised as in real use.
	allRows := func(tab *dataset.Table) *dataset.Table {
		idx := make([]int, tab.NumRows())
		for i := range idx {
			idx[i] = i
		}
		return tab.Subset("dq", idx)
	}
	cfg := SpaceConfig{BinCounts: []int{5}}
	gen, err := NewGenerator(base, allRows(base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.WarmCtx(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := gen.MaxDriftRate(); got != 0 {
		t.Fatalf("fresh generator drift = %g, want 0", got)
	}
	g2, err := gen.ApplyAppend(appended, allRows(appended))
	if err != nil {
		t.Fatal(err)
	}
	appended2, err := appended.WithAppended([][]dataset.Value{
		{dataset.Float(200), dataset.Float(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := g2.ApplyAppend(appended2, allRows(appended2))
	if err != nil {
		t.Fatal(err)
	}
	ds := g3.DriftStats()
	found := false
	for _, ld := range ds {
		if ld.Dimension == "d" && ld.Bins == 5 {
			found = true
			if ld.Drift.Appended != 5 || ld.Drift.OutOfRange != 3 {
				t.Fatalf("cumulative drift = %+v, want {Appended:5 OutOfRange:3}", ld.Drift)
			}
		}
	}
	if !found {
		t.Fatalf("no drift entry for layout d/5 in %+v", ds)
	}
	if got, want := g3.MaxDriftRate(), 0.6; got != want {
		t.Fatalf("MaxDriftRate = %g, want %g", got, want)
	}
	// The parent generation's counts were not mutated by the child.
	if got := g2.MaxDriftRate(); got != 0.5 {
		t.Fatalf("parent MaxDriftRate = %g, want 0.5", got)
	}
}

// extendChain returns versions[0] = a random n-row table and each later
// version = its predecessor with b random rows appended, plus the
// (equal-width 4- and 8-bin) layouts of its numeric dimension.
func extendChain(t *testing.T, n, b, appends int) ([]*dataset.Table, []*BinLayout) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	versions := []*dataset.Table{randomTable(rng, n)}
	for i := 0; i < appends; i++ {
		rows := make([][]dataset.Value, b)
		for r := range rows {
			rows[r] = []dataset.Value{dataset.StringVal("a"), dataset.Float(rng.Float64() * 120),
				dataset.Float(1), dataset.Int(2)}
		}
		next, err := versions[len(versions)-1].WithAppended(rows)
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, next)
	}
	var layouts []*BinLayout
	for _, bins := range []int{4, 8} {
		l, err := ComputeLayout(versions[0], "num", bins)
		if err != nil {
			t.Fatal(err)
		}
		layouts = append(layouts, l)
	}
	return versions, layouts
}

// TestExtendBinIndexAllAllocationBound: N extensions of bin indexes over
// an n-row table by b rows each allocate O(N·b) bytes, not O(N·n). The
// first extension copies each fresh BinIndexAll index into an array grown
// as append grows it (1.25× at this size), and the rest write only the
// appended rows into its tail; copying the prefix on every extension
// instead would cost about N times that one copy.
func TestExtendBinIndexAllAllocationBound(t *testing.T) {
	const n, appends, b = 50_000, 40, 100
	versions, layouts := extendChain(t, n, b, appends)
	idx, err := BinIndexAll(versions[0], layouts)
	if err != nil {
		t.Fatal(err)
	}
	var backs []*dataset.Backing[int32]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, v := range versions[1:] {
		if idx, backs, _, err = ExtendBinIndexAll(v, layouts, idx, backs, versions[i].NumRows()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	growth := uint64(len(layouts) * n * 4 * 5 / 4)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(appends*b*16)+growth; got > bound {
		t.Errorf("%d extensions by %d rows allocated %d bytes, want ≤ %d", appends, b, got, bound)
	}
	want, err := BinIndexAll(versions[appends], layouts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, want) {
		t.Fatal("extended bin indexes differ from a rebuild")
	}
}

// TestExtendBinIndexAllForkStaysExact extends one bundle twice, for two
// versions appended to the same parent: the first extension claims the
// indexes' tails and the second copies, and both equal a rebuild.
func TestExtendBinIndexAllForkStaysExact(t *testing.T) {
	versions, layouts := extendChain(t, 300, 20, 2)
	base := versions[1]
	idx, err := BinIndexAll(versions[0], layouts)
	if err != nil {
		t.Fatal(err)
	}
	idx, backs, _, err := ExtendBinIndexAll(base, layouts, idx, nil, versions[0].NumRows())
	if err != nil {
		t.Fatal(err)
	}
	left := versions[2]
	right, err := base.WithAppended([][]dataset.Value{
		{dataset.StringVal("b"), dataset.Float(-5), dataset.Null, dataset.Int(1)},
		{dataset.StringVal("c"), dataset.Float(99), dataset.Float(3), dataset.Null},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got [2][][]int32
	for i, v := range []*dataset.Table{left, right} {
		if got[i], _, _, err = ExtendBinIndexAll(v, layouts, idx, backs, base.NumRows()); err != nil {
			t.Fatal(err)
		}
	}
	if &got[0][0][0] != &idx[0][0] || &got[1][0][0] == &idx[0][0] {
		t.Fatal("want the first extension to share the parent's index and the fork to copy")
	}
	for i, v := range []*dataset.Table{base, left, right} {
		want, err := BinIndexAll(v, layouts)
		if err != nil {
			t.Fatal(err)
		}
		have := idx
		if i > 0 {
			have = got[i-1]
		}
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("version %d: extended bin indexes differ from a rebuild", i)
		}
	}
}
