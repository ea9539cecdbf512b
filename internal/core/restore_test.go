package core

import (
	"testing"

	"viewseeker/internal/active"
)

// TestDensityRestoreMatchesOriginal drives a density-weighted session at
// α < 1 until refinement has rewritten rows after its first density
// selection, then restores its State into a fresh session over a freshly
// computed matrix. Both must pick the same next views: the original's
// density cache has to follow the rows refinement rewrote, exactly as the
// restored session computes it from the rows as they stand.
func TestDensityRestoreMatchesOriginal(t *testing.T) {
	cfg := func() Config { return Config{K: 5, Strategy: &active.DensityWeighted{}} }
	orig, err := NewSeeker(buildMatrix(t, 0.25), cfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	var densityVer uint64
	for i := 0; i < 12; i++ {
		next, ok, err := orig.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("view space exhausted")
		}
		if i == 2 {
			densityVer = orig.matrix.Version() // first selection past cold start
		}
		if err := orig.Feedback(next, float64(i%2)*0.8+0.1); err != nil {
			t.Fatal(err)
		}
	}
	if orig.InColdStart() {
		t.Fatal("session never left cold start")
	}
	if orig.matrix.Version() == densityVer {
		t.Fatal("refinement rewrote no rows after the first density selection")
	}

	restored, err := NewSeeker(buildMatrix(t, 0.25), cfg(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(orig.State()); err != nil {
		t.Fatal(err)
	}
	// Each presents one view per iteration; both follow the same labels
	// for a few rounds and must pick the same view every time.
	for round := 0; round < 5; round++ {
		want, wantOK, err := restored.Next()
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := orig.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || ok != wantOK {
			t.Fatalf("round %d: original picks %d (%v), restored picks %d (%v)", round, got, ok, want, wantOK)
		}
		if !ok {
			break
		}
		label := float64(round%2)*0.8 + 0.1
		if err := orig.Feedback(got, label); err != nil {
			t.Fatal(err)
		}
		if err := restored.Feedback(want, label); err != nil {
			t.Fatal(err)
		}
	}
}
