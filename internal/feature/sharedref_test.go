package feature

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

// privateCopy deep-copies a table into a new table version, whose
// generators cannot share the original's reference side.
func privateCopy(t *dataset.Table) *dataset.Table {
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	return t.Subset(t.Name, rows)
}

// offlinePasses computes the exact and the α-sampled matrix of one
// (reference, target) pair, each on its own generator.
func offlinePasses(ref, tgt *dataset.Table, cfg view.SpaceConfig, workers int) (exact, partial *Matrix, err error) {
	reg := StandardRegistry()
	g, err := view.NewGenerator(ref, tgt, cfg)
	if err != nil {
		return nil, nil, err
	}
	if exact, err = ComputeWorkers(g, reg, workers); err != nil {
		return nil, nil, err
	}
	if g, err = view.NewGenerator(ref, tgt, cfg); err != nil {
		return nil, nil, err
	}
	partial, err = ComputePartialWorkersCtx(context.Background(), g, reg, 0.3, workers)
	return exact, partial, err
}

// TestSharedRefMatchesPrivate is the shared ≡ private differential test:
// over random tables (NULLs, categorical and numeric dimensions,
// equal-depth on and off), generators with different targets run their
// exact and α-sampled passes concurrently against one shared reference
// side, and every matrix must be bit-identical to the one computed over a
// deep copy of the reference, which shares nothing.
func TestSharedRefMatchesPrivate(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, _ := randomTable(t, rng)
		cfg := view.SpaceConfig{BinCounts: []int{3, 4}, EqualDepth: seed%2 == 0}
		targets := make([]*dataset.Table, 6)
		for i := range targets {
			var sel []int
			stride := 2 + rng.Intn(9)
			for r := rng.Intn(stride); r < ref.NumRows(); r += stride {
				sel = append(sel, r)
			}
			targets[i] = ref.Subset("tgt", sel)
		}
		type passes struct {
			exact, partial *Matrix
			err            error
		}
		want := make([]passes, len(targets))
		for i, tgt := range targets {
			p := &want[i]
			if p.exact, p.partial, p.err = offlinePasses(privateCopy(ref), tgt, cfg, 1); p.err != nil {
				t.Fatal(p.err)
			}
		}
		got := make([]passes, len(targets))
		var wg sync.WaitGroup
		for i, tgt := range targets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := &got[i]
				p.exact, p.partial, p.err = offlinePasses(ref, tgt, cfg, 2)
			}()
		}
		wg.Wait()
		for i := range targets {
			if got[i].err != nil {
				t.Fatal(got[i].err)
			}
			label := fmt.Sprintf("seed %d target %d", seed, i)
			assertIdentical(t, want[i].exact, got[i].exact, label+" exact")
			assertIdentical(t, want[i].partial, got[i].partial, label+" partial")
		}
	}
}

// TestSharedRefVersionBump mutates a reference whose shared side is warm
// and checks the next generator sees the mutation: after AppendRow and
// after AssignRoles its matrix must match a private copy of the mutated
// table, never the statistics warmed before the bump.
func TestSharedRefVersionBump(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref, tgt := randomTable(t, rng)
	cfg := view.SpaceConfig{BinCounts: []int{3, 4}}
	before, _, err := offlinePasses(ref, tgt, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) *Matrix {
		t.Helper()
		got, _, err := offlinePasses(ref, tgt, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := offlinePasses(privateCopy(ref), tgt, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, want, got, step)
		return got
	}
	for i := 0; i < 50; i++ {
		row := ref.Row(i)
		row[1] = dataset.Float(500 + float64(i)) // stretches num's range
		ref.MustAppendRow(row...)
	}
	appended := check("after AppendRow")
	changed := false
	for i := range before.Rows {
		for j := range before.Rows[i] {
			changed = changed || before.Rows[i][j] != appended.Rows[i][j]
		}
	}
	if !changed {
		t.Fatal("appending 50 reference rows changed no feature: the test cannot see stale stats")
	}
	if err := dataset.AssignRoles(ref, []string{"m2"}, nil); err != nil {
		t.Fatal(err)
	}
	if m := check("after AssignRoles"); m.Len() == appended.Len() {
		t.Fatalf("AssignRoles made m2 a dimension but the space stayed at %d views", m.Len())
	}
}
