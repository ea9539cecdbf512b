package view

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"viewseeker/internal/dataset"
)

// nanTable builds a table whose float dimensions carry NaN and ±Inf next
// to ordinary values and NULLs: "nan" has NaNs in a finite range, "pinf"
// adds +Inf, "ninf" adds −Inf and NaN. Measures stay finite, so the stats
// comparisons below are exact float equality.
func nanTable(rng *rand.Rand, rows int) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "nan", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "pinf", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "ninf", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m1", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m2", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
	)
	t := dataset.NewTable("nt", schema)
	special := func(vals ...float64) dataset.Value {
		switch rng.Intn(8) {
		case 0:
			return dataset.Null
		case 1:
			return dataset.Float(vals[rng.Intn(len(vals))])
		}
		return dataset.Float(rng.NormFloat64() * 10)
	}
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			special(math.NaN()),
			special(math.Inf(1), math.NaN()),
			special(math.Inf(-1), math.NaN()),
			dataset.Float(rng.NormFloat64()*5),
			dataset.Int(int64(rng.Intn(50))),
		)
	}
	return t
}

// TestNaNAndInfDimensionsMatchReference holds every binning and scan path
// to the row-at-a-time oracle on dimensions with NaN and ±Inf values,
// equal-width and equal-depth: BinOf, the columnar fillBins, the fused
// multi-layout BinIndexAll and every CollectStats shape must agree, every
// bin must be a real bin or −1, and a NaN cell is never placed.
func TestNaNAndInfDimensionsMatchReference(t *testing.T) {
	measures := []string{"m1", "m2"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := nanTable(rng, 60+rng.Intn(200))
		var sel []int
		for r := 0; r < tab.NumRows(); r += 3 {
			sel = append(sel, r)
		}
		for _, dim := range []string{"nan", "pinf", "ninf"} {
			col := tab.Column(dim)
			for _, equalDepth := range []bool{false, true} {
				var layouts []*BinLayout
				for _, bins := range []int{3, 4} {
					var l *BinLayout
					var err error
					if equalDepth {
						l, err = ComputeLayoutEqualDepth(tab, dim, bins)
					} else {
						l, err = ComputeLayout(tab, dim, bins)
					}
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, dim, err)
					}
					layouts = append(layouts, l)
				}
				all, err := BinIndexAll(tab, layouts)
				if err != nil {
					t.Fatal(err)
				}
				for i, l := range layouts {
					idx := binIndex(t, tab, l)
					for r := 0; r < tab.NumRows(); r++ {
						want := l.BinOf(col, r)
						if want < -1 || want >= l.NumBins() {
							t.Fatalf("seed %d %s depth=%v row %d: BinOf = %d, not a bin", seed, dim, equalDepth, r, want)
						}
						if f, ok := col.Float(r); ok && math.IsNaN(f) && want != -1 {
							t.Fatalf("seed %d %s depth=%v row %d: NaN placed in bin %d", seed, dim, equalDepth, r, want)
						}
						if int(idx[r]) != want || int(all[i][r]) != want {
							t.Fatalf("seed %d %s depth=%v row %d: BinOf %d, fillBins %d, BinIndexAll %d",
								seed, dim, equalDepth, r, want, idx[r], all[i][r])
						}
					}
					full, err := collectStatsReference(tab, l, measures, nil)
					if err != nil {
						t.Fatal(err)
					}
					sub, err := collectStatsReference(tab, l, measures, sel)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range []struct {
						name string
						want *Stats
						got  func() (*Stats, error)
					}{
						{"indexed", full, func() (*Stats, error) { return CollectStats(tab, l, measures, nil, idx) }},
						{"fused", full, func() (*Stats, error) { return CollectStats(tab, l, measures, nil, all[i]) }},
						{"sampled", sub, func() (*Stats, error) { return CollectStats(tab, l, measures, sel, idx) }},
					} {
						got, err := c.got()
						if err != nil {
							t.Fatal(err)
						}
						if err := statsEqual(c.want, got); err != nil {
							t.Fatalf("seed %d %s depth=%v %s: %v", seed, dim, equalDepth, c.name, err)
						}
					}
				}
			}
		}
	}
}

// TestNaNDimensionFiveRows is the minimal reproduction: one NaN among
// five rows used to land in the first equal-width bar, and collapsed the
// equal-depth fit to edges [NaN NaN] so the scan panicked.
func TestNaNDimensionFiveRows(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "d", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	tab := dataset.NewTable("five", schema)
	for _, d := range []float64{1, 2, math.NaN(), 3, 4} {
		tab.MustAppendRow(dataset.Float(d), dataset.Float(1))
	}
	for _, equalDepth := range []bool{false, true} {
		g, err := NewGenerator(tab, tab, SpaceConfig{BinCounts: []int{2}, EqualDepth: equalDepth})
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.Pair(Spec{Dimension: "d", Measure: "m", Agg: "COUNT", Bins: 2})
		if err != nil {
			t.Fatal(err)
		}
		if total := p.Reference.TotalCount(); total != 4 {
			t.Errorf("equalDepth=%v: %v rows binned, want the 4 non-NaN rows (bars %v)", equalDepth, total, p.Reference.Values)
		}
	}

	allNaN := dataset.NewTable("allnan", schema)
	allNaN.MustAppendRow(dataset.Float(math.NaN()), dataset.Float(1))
	if _, err := ComputeLayout(allNaN, "d", 2); err == nil {
		t.Error("equal-width layout over an all-NaN dimension succeeded")
	}
	if _, err := ComputeLayoutEqualDepth(allNaN, "d", 2); err == nil {
		t.Error("equal-depth layout over an all-NaN dimension succeeded")
	}
}

// TestSharedRefSideLifetime pins who owns a reference side: generators
// over one table version and layout shape share one, whatever their
// target or aggregate set; another layout shape, a mutated table or an
// appended version gets its own; an ApplyAppend generator keeps a private
// side pinned to its parent's layouts.
func TestSharedRefSideLifetime(t *testing.T) {
	ref, tgt := demoTables(t)
	cfg := SpaceConfig{BinCounts: []int{3, 4}}
	g1, err := NewGenerator(ref, tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(ref, ref, SpaceConfig{BinCounts: []int{3, 4}, Aggs: []string{"SUM"}})
	if err != nil {
		t.Fatal(err)
	}
	if g1.ref != g2.ref || !g1.sharedRef {
		t.Fatal("generators over one table version did not share its reference side")
	}
	g3, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if g3.ref == g1.ref {
		t.Fatal("different bin counts shared a reference side")
	}
	if err := g1.WarmCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	next, err := ref.WithAppended([][]dataset.Value{ref.Row(0)})
	if err != nil {
		t.Fatal(err)
	}
	ng, err := g1.ApplyAppend(next, tgt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewGenerator(next, tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ng.sharedRef || ng.ref == g1.ref || ng.ref == fresh.ref {
		t.Fatal("ApplyAppend generator does not own a private reference side")
	}
	if fresh.ref == g1.ref {
		t.Fatal("an appended version reused its parent's reference side")
	}
	if _, ok := ng.ref.stats.peek(layoutKey{"z", 3}); !ok {
		t.Fatal("ApplyAppend did not carry the extended reference stats")
	}

	ref.MustAppendRow(ref.Row(1)...)
	g4, err := NewGenerator(ref, tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g4.ref == g1.ref {
		t.Fatal("a mutated table kept its old reference side")
	}
}

// TestGeneratorMemoryExcludesSharedRefSide is the accounting trap: a
// generator's charge covers its target side only, so it must not change
// when another generator over the same table warms the shared reference
// side — while a private (ApplyAppend) side is charged to its owner.
func TestGeneratorMemoryExcludesSharedRefSide(t *testing.T) {
	spec := func(g *Generator) Spec { return g.Specs()[0] }
	charge := func(ref, tgt *dataset.Table) int64 {
		g, err := NewGenerator(ref, tgt, SpaceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Pair(spec(g)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.FamilyStats(g.Specs()[len(g.Specs())-1]); err != nil {
			t.Fatal(err)
		}
		return g.MemoryBytes()
	}
	ref, tgt := demoTables(t)
	cold := charge(ref, tgt)
	other, err := NewGenerator(ref, ref.Subset("other", []int{0, 1, 2}), SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.WarmCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if warm := charge(ref, tgt); warm != cold {
		t.Fatalf("charge moved from %d to %d bytes when another generator warmed the shared reference side", cold, warm)
	}

	next, err := ref.WithAppended([][]dataset.Value{ref.Row(0)})
	if err != nil {
		t.Fatal(err)
	}
	ng, err := other.ApplyAppend(next, other.Target)
	if err != nil {
		t.Fatal(err)
	}
	if ng.MemoryBytes() <= other.MemoryBytes() {
		t.Fatalf("private reference side not charged: %d bytes after ApplyAppend, %d before", ng.MemoryBytes(), other.MemoryBytes())
	}
}

// cancelAfter is a context whose Err turns Canceled after n calls: the
// warm pool checks it between layout scans, so a warm under it stops
// partway with some shared scans done and others never started.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSharedRefCancelledWarmUnpoisoned cancels a create's warm pass
// partway through and checks the shared side it half-filled: every later
// generator over the table, any target, must see exactly what generators
// over a private copy of the reference see.
func TestSharedRefCancelledWarmUnpoisoned(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := kernelTable(rng, 400)
	cfg := SpaceConfig{BinCounts: []int{3, 4}}
	for _, n := range []int64{0, 1, 3, 7} {
		ref = ref.Subset("kt", allRows(ref)) // a fresh version per round
		g, err := NewGenerator(ref, ref.Subset("t0", []int{1, 5, 9}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &cancelAfter{Context: context.Background()}
		ctx.n.Store(n)
		if err := g.WarmCtx(ctx, 1); err != context.Canceled {
			t.Fatalf("n=%d: warm err = %v, want Canceled", n, err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var sel []int
				for r := w; r < ref.NumRows(); r += 2 + w {
					sel = append(sel, r)
				}
				shared, err := NewGenerator(ref, ref.Subset("t", sel), cfg)
				if err != nil {
					t.Error(err)
					return
				}
				priv := ref.Subset("copy", allRows(ref))
				private, err := NewGenerator(priv, priv.Subset("t", sel), cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if err := shared.WarmCtx(context.Background(), 2); err != nil {
					t.Error(err)
					return
				}
				for _, s := range shared.Specs() {
					sr, st, err := shared.LayoutStats(s)
					if err != nil {
						t.Error(err)
						return
					}
					pr, pt, err := private.LayoutStats(s)
					if err != nil {
						t.Error(err)
						return
					}
					if err := statsEqual(pr, sr); err != nil {
						t.Errorf("n=%d %s reference: %v", n, s, err)
						return
					}
					if err := statsEqual(pt, st); err != nil {
						t.Errorf("n=%d %s target: %v", n, s, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

func allRows(t *dataset.Table) []int {
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return rows
}
