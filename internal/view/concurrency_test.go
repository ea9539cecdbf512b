package view

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestCollectStatsConcurrentDecode races many indexed scans over a fresh
// table whose int/bool columns must be decoded lazily: the decode-once
// caches are built under contention and every goroutine must still see
// stats bit-identical to the sequential reference.
func TestCollectStatsConcurrentDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := kernelTable(rng, 2_000)
	measures := []string{"m1", "m2", "mconst", "mbool"}
	layouts := kernelLayouts(t, tab)
	want := make([]*Stats, len(layouts))
	for i, l := range layouts {
		var err error
		if want[i], err = collectStatsReference(tab, l, measures, nil); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, l := range layouts {
				bins, err := BinIndexAll(tab, []*BinLayout{l})
				if err != nil {
					t.Error(err)
					return
				}
				got, err := CollectStats(tab, l, measures, nil, bins[0])
				if err != nil {
					t.Error(err)
					return
				}
				if err := statsEqual(want[i], got); err != nil {
					t.Errorf("layout %q: %v", l.Dimension, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestGeneratorConcurrentAccess hammers one generator's lazy caches from
// many goroutines mixing every access path — full pairs, focused family
// stats, warming, and sampled runs — so `go test -race` proves the single-flight
// caches hold up. Results must also match a sequential reference.
func TestGeneratorConcurrentAccess(t *testing.T) {
	ref, tgt := demoTables(t)
	g, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference values from an identically configured generator.
	gRef, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	specs := g.Specs()
	want := make([]*Pair, len(specs))
	for i, s := range specs {
		if want[i], err = gRef.Pair(s); err != nil {
			t.Fatal(err)
		}
	}

	sampleRows := ref.SampleRows(0.3)
	run := g.NewSampledRun(sampleRows)
	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*4)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%3 == 0 {
				if err := g.WarmCtx(context.Background(), 2); err != nil {
					errCh <- err
					return
				}
			}
			if w%4 == 0 {
				if err := run.WarmCtx(context.Background(), 2); err != nil {
					errCh <- err
					return
				}
			}
			for i, s := range specs {
				p, err := g.Pair(s)
				if err != nil {
					errCh <- err
					return
				}
				for b, v := range p.Target.Values {
					if v != want[i].Target.Values[b] {
						t.Errorf("concurrent pair %s bin %d = %v, want %v", s, b, v, want[i].Target.Values[b])
					}
				}
				if _, _, err := g.FamilyStats(s); err != nil {
					errCh <- err
					return
				}
				if _, _, err := run.LayoutStats(s); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSampledRunWarmMatchesLazy checks that a warmed sampled run produces
// the same statistics as a lazily evaluated one.
func TestSampledRunWarmMatchesLazy(t *testing.T) {
	ref, tgt := demoTables(t)
	g, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	rows := ref.SampleRows(0.2)
	warmed := g.NewSampledRun(rows)
	if err := warmed.WarmCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	lazy := g.NewSampledRun(rows)
	for _, s := range g.Specs() {
		wr, wt, err := warmed.LayoutStats(s)
		if err != nil {
			t.Fatal(err)
		}
		lr, lt, err := lazy.LayoutStats(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := statsEqual(wr, lr); err != nil {
			t.Fatalf("%s reference: warmed vs lazy: %v", s, err)
		}
		if err := statsEqual(wt, lt); err != nil {
			t.Fatalf("%s target: warmed vs lazy: %v", s, err)
		}
	}
}
