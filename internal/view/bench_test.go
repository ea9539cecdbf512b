package view

import (
	"math/rand"
	"testing"
)

func benchGenerator(b *testing.B, rows int) *Generator {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	tab := randomTable(rng, rows)
	var sel []int
	for i := 0; i < rows; i += 7 {
		sel = append(sel, i)
	}
	g, err := NewGenerator(tab, tab.Subset("tgt", sel), SpaceConfig{BinCounts: []int{4}})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkCollectStats measures the all-rows scan through a prebuilt
// bin index.
func BenchmarkCollectStats(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tab := randomTable(rng, 100_000)
	layout, err := ComputeLayout(tab, "cat", 0)
	if err != nil {
		b.Fatal(err)
	}
	bins := binIndex(b, tab, layout)
	measures := tab.Schema.Measures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectStats(tab, layout, measures, nil, bins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullViewSpacePairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := benchGenerator(b, 20_000)
		b.StartTimer()
		for _, s := range g.Specs() {
			if _, err := g.Pair(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCollectStatsReference measures the row-at-a-time reference
// scan the tests keep as the kernels' oracle — the pre-kernel path — so
// the columnar speedup stays visible in every benchmark run.
func BenchmarkCollectStatsReference(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tab := randomTable(rng, 100_000)
	layout, err := ComputeLayout(tab, "cat", 0)
	if err != nil {
		b.Fatal(err)
	}
	measures := tab.Schema.Measures()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collectStatsReference(tab, layout, measures, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectStatsSampled measures the α-pass gather through a cached
// full-table bin index against the reference's re-binning scan of the
// same rows.
func BenchmarkCollectStatsSampled(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tab := randomTable(rng, 100_000)
	layout, err := ComputeLayout(tab, "cat", 0)
	if err != nil {
		b.Fatal(err)
	}
	bins := binIndex(b, tab, layout)
	measures := tab.Schema.Measures()
	rows := tab.SampleRows(0.1)
	b.Run("indexed-gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := CollectStats(tab, layout, measures, rows, bins); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-rebin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := collectStatsReference(tab, layout, measures, rows); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBinIndex measures the dictionary-encoding kernel on a
// categorical and a numeric dimension.
func BenchmarkBinIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tab := randomTable(rng, 100_000)
	for _, spec := range []struct {
		dim  string
		bins int
	}{{"cat", 0}, {"num", 4}} {
		layout, err := ComputeLayout(tab, spec.dim, spec.bins)
		if err != nil {
			b.Fatal(err)
		}
		layouts := []*BinLayout{layout}
		b.Run(spec.dim, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BinIndexAll(tab, layouts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBinIndexAllocations pins the bin-index kernel to zero allocations
// per call, so the per-row GroupKey string materialisation of the
// categorical path cannot come back, and BinIndexAll to its output: one
// slice of indexes plus one index per layout.
func TestBinIndexAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randomTable(rng, 10_000)
	for _, spec := range []struct {
		dim  string
		bins int
	}{{"cat", 0}, {"num", 4}} {
		layout, err := ComputeLayout(tab, spec.dim, spec.bins)
		if err != nil {
			t.Fatal(err)
		}
		layouts := []*BinLayout{layout}
		out := [][]int32{binIndex(t, tab, layout)} // also warms decode caches
		col := tab.Column(spec.dim)
		if allocs := testing.AllocsPerRun(10, func() { binRows(col, layouts, out, 0) }); allocs > 0 {
			t.Errorf("bin kernel on %s allocates %.1f times per run, want 0", spec.dim, allocs)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := BinIndexAll(tab, layouts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("BinIndexAll(%s) allocates %.1f times per run, want ≤ 2", spec.dim, allocs)
		}
	}
}
