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

// kernelBundles returns the layout bundles extendBinIndexAll is called
// with, one per dimension: every bin configuration of a numeric dimension
// together, and the single configuration of each categorical dimension.
func kernelBundles(t *testing.T, tab *dataset.Table) [][]*BinLayout {
	t.Helper()
	bundles := [][]*BinLayout{}
	for _, dim := range []string{"cat", "flag"} {
		l, err := computeLayout(tab, dim, 0)
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, []*BinLayout{l})
	}
	for _, dim := range []string{"num", "numint", "constd"} {
		var bundle []*BinLayout
		for _, bins := range []int{3, 4, 6} {
			l, err := computeLayout(tab, dim, bins)
			if err != nil {
				t.Fatal(err)
			}
			bundle = append(bundle, l)
		}
		bundles = append(bundles, bundle)
	}
	return bundles
}

// TestExtendMatchesRebuild is the IVM property test: over randomised
// tables and adversarial appends, append-then-extend must equal
// rebuild-from-scratch bit for bit — each multi-layout bin bundle entry
// for entry against BinIndexAll over the appended table, Stats across
// every accumulator array — with collectStatsReference over the
// post-append table as the stats oracle. The layouts stay the base's, so
// appended values outside them exercise the bin -1 path on both sides.
// Each layout's fitHolds must say exactly whether a fresh fit of the
// appended table returns the layout again.
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
			ext, _, err := extendBinIndexAll(appended, bundle, old, nil, from)
			if err != nil {
				t.Fatal(err)
			}
			full, err := BinIndexAll(appended, bundle)
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range bundle {
				for r, want := range full[i] {
					if ext[i][r] != want {
						t.Fatalf("dim %q/%d row %d: extended bin %d != rebuilt %d",
							dim, l.NumBins(), r, ext[i][r], want)
					}
				}
				refit, err := computeLayout(appended, dim, l.Bins)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := l.fitHolds(appended, from), reflect.DeepEqual(refit, l); got != want {
					t.Fatalf("dim %q/%d: fitHolds = %v, fresh fit unchanged = %v", dim, l.NumBins(), got, want)
				}

				oldStats, err := CollectStats(base, l, measures, nil, old[i])
				if err != nil {
					t.Fatal(err)
				}
				extStats, ok, err := extendStats(appended, oldStats, ext[i], from)
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
// SumSqs — extendStats must refuse so the caller rebuilds.
func TestExtendStatsShiftDrift(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	base := dataset.NewTable("t", schema)
	base.MustAppendRow(dataset.StringVal("a"), dataset.Null)
	base.MustAppendRow(dataset.StringVal("b"), dataset.Null)
	layout, err := computeLayout(base, "cat", 0)
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
	ext, _, err := extendBinIndexAll(appended, []*BinLayout{layout}, [][]int32{oldBins}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := extendStats(appended, oldStats, ext[0], 2); err != nil || ok {
		t.Fatalf("shift drift not detected: ok=%v err=%v", ok, err)
	}
	// An all-null append over the all-null base keeps shift 0: extendable.
	appended2, err := base.WithAppended([][]dataset.Value{{dataset.StringVal("a"), dataset.Null}})
	if err != nil {
		t.Fatal(err)
	}
	ext2, _, err := extendBinIndexAll(appended2, []*BinLayout{layout}, [][]int32{oldBins}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := extendStats(appended2, oldStats, ext2[0], 2); err != nil || !ok {
		t.Fatalf("all-null extension refused: ok=%v err=%v", ok, err)
	}
}

// inFitRows draws n rows that leave every layout fit to base unchanged:
// base rows with dimension cells turned NULL (and the float dimension
// NaN) now and then, and a fresh m1 — measures shape no layout.
func inFitRows(rng *rand.Rand, base *dataset.Table, n int) [][]dataset.Value {
	schema := base.Schema
	rows := make([][]dataset.Value, n)
	for i := range rows {
		row := base.Row(rng.Intn(base.NumRows()))
		for _, dim := range []string{"cat", "flag", "num", "numint"} {
			if rng.Intn(6) == 0 {
				row[schema.Index(dim)] = dataset.Null
			}
		}
		if rng.Intn(6) == 0 {
			row[schema.Index("num")] = dataset.Float(math.NaN())
		}
		row[schema.Index("m1")] = dataset.Float(rng.NormFloat64() * 100)
		rows[i] = row
	}
	return rows
}

// TestApplyAppendMatchesScratch: a delta-extended generator must serve
// every pair bit-identically to a fresh generator over a private copy of
// the appended tables, which refits the layouts — so an append that
// changes a fit must be refused. Rows re-drawn from the base, with NULL
// and NaN cells, extend; appendedKernelTable's adversarial suffix (new
// categories and extremes) is refused. The extended reference side
// becomes the appended version's own.
func TestApplyAppendMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base, adversarial, _ := appendedKernelTable(t, rng)
	// Target: a filtered subset of the base, extended by the append's
	// matching rows — prefix-extension, like live query maintenance.
	dq := func(tab *dataset.Table) *dataset.Table {
		col := tab.Column("m2")
		var sel []int
		for r := 0; r < tab.NumRows(); r++ {
			if v, ok := col.Float(r); ok && v >= 25 {
				sel = append(sel, r)
			}
		}
		return tab.Subset("dq", sel)
	}
	baseTgt := dq(base)

	cfg := SpaceConfig{BinCounts: []int{3, 4}}
	warm, err := NewGenerator(base, baseTgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.WarmCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if ng, ok, err := warm.ApplyAppend(adversarial, dq(adversarial)); err != nil || ok || ng != nil {
		t.Fatalf("an append that changes the fits was extended: ok=%v err=%v", ok, err)
	}
	appended, err := base.WithAppended(inFitRows(rng, base, 80))
	if err != nil {
		t.Fatal(err)
	}
	newTgt := dq(appended)
	delta, ok, err := warm.ApplyAppend(appended, newTgt)
	if err != nil || !ok {
		t.Fatalf("an append within the fits was refused: ok=%v err=%v", ok, err)
	}
	if cold, err := NewGenerator(appended, newTgt, cfg); err != nil || cold.ref != delta.ref {
		t.Fatalf("the appended version does not own the extended reference side (err %v)", err)
	}
	priv := appended.Subset("copy", allRows(appended))
	scratch, err := NewGenerator(priv, dq(priv), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range warm.Specs() {
		if !reflect.DeepEqual(delta.Layout(spec), scratch.Layout(spec)) {
			t.Fatalf("spec %v: extended layout differs from a fresh fit", spec)
		}
		dp, err := delta.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := scratch.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, hp := range []struct{ d, s *Histogram }{{dp.Target, sp.Target}, {dp.Reference, sp.Reference}} {
			if hp.d.Shift != hp.s.Shift || !reflect.DeepEqual(hp.d.Labels, hp.s.Labels) {
				t.Fatalf("spec %v: shift %g labels %v, fresh %g %v", spec, hp.d.Shift, hp.d.Labels, hp.s.Shift, hp.s.Labels)
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

// TestApplyAppendRefitDecision pins when an append changes a fit: a value
// past the fitted minimum or maximum or a new category does, while NULLs,
// NaN and values inside the range do not; a constant column's fit holds
// only for its constant.
func TestApplyAppendRefitDecision(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "d", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "c", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "k", Kind: dataset.KindInt, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	base := dataset.NewTable("t", schema)
	for i := 0; i < 10; i++ {
		base.MustAppendRow(dataset.Float(float64(i)), dataset.StringVal(string(rune('a'+i%3))), dataset.Int(4), dataset.Float(1))
	}
	f, s, k, null := dataset.Float, dataset.StringVal, dataset.Int, dataset.Null
	for _, c := range []struct {
		name string
		row  []dataset.Value
		fits bool
	}{
		{"in range", []dataset.Value{f(3.5), s("b"), k(4), f(1e9)}, true},
		{"range ends", []dataset.Value{f(0), s("a"), k(4), f(1)}, true},
		{"nulls", []dataset.Value{null, null, null, null}, true},
		{"nan", []dataset.Value{f(math.NaN()), s("c"), k(4), f(math.NaN())}, true},
		{"new max", []dataset.Value{f(9.5), s("a"), k(4), f(1)}, false},
		{"new min", []dataset.Value{f(-1), s("a"), k(4), f(1)}, false},
		{"+inf", []dataset.Value{f(math.Inf(1)), s("a"), k(4), f(1)}, false},
		{"new category", []dataset.Value{f(1), s("z"), k(4), f(1)}, false},
		{"constant moves", []dataset.Value{f(1), s("a"), k(5), f(1)}, false},
	} {
		g, err := NewGenerator(base, base, SpaceConfig{BinCounts: []int{3}})
		if err != nil {
			t.Fatal(err)
		}
		appended, err := base.WithAppended([][]dataset.Value{c.row})
		if err != nil {
			t.Fatal(err)
		}
		ng, ok, err := g.ApplyAppend(appended, appended)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.fits || (ng != nil) != c.fits {
			t.Errorf("%s: extended %v, want %v", c.name, ok, c.fits)
		}
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
		l, err := computeLayout(versions[0], "num", bins)
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
		if idx, backs, err = extendBinIndexAll(v, layouts, idx, backs, versions[i].NumRows()); err != nil {
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
	idx, backs, err := extendBinIndexAll(base, layouts, idx, nil, versions[0].NumRows())
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
		if got[i], _, err = extendBinIndexAll(v, layouts, idx, backs, base.NumRows()); err != nil {
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
