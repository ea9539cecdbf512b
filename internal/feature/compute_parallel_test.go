package feature

import (
	"context"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

// diabGenerator builds a mid-size generator so the parallel pass has real
// fan-out (280 views, several layouts) rather than the tiny demo space.
func diabGenerator(t *testing.T) *view.Generator {
	t.Helper()
	ref := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 3000, Seed: 11})
	var rows []int
	diag := ref.Column("diag_group").Strs
	for i := range diag {
		if diag[i] == "diabetes" {
			rows = append(rows, i)
		}
	}
	tgt := ref.Subset("tgt", rows)
	g, err := view.NewGenerator(ref, tgt, view.SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertIdentical(t *testing.T, a, b *Matrix, label string) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d vs %d rows", label, a.Len(), b.Len())
	}
	for i := range a.Rows {
		if a.Exact[i] != b.Exact[i] {
			t.Fatalf("%s: row %d exactness differs", label, i)
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("%s: row %d feature %d: %v vs %v (must be bit-identical)",
					label, i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

// TestComputeWorkersEquivalence asserts the offline phase is a pure
// function of the data: matrices computed at workers=1 and workers=8 are
// bit-identical, for both the exact and the α-sampled pass. Fresh
// generators per run keep the scan caches from masking differences.
func TestComputeWorkersEquivalence(t *testing.T) {
	reg := StandardRegistry()

	seq, err := ComputeWorkers(diabGenerator(t), reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ComputeWorkers(diabGenerator(t), reg, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seq, par, "exact")
	if !par.AllExact() {
		t.Error("parallel exact pass must mark every row exact")
	}

	seqP, err := ComputePartialWorkersCtx(context.Background(), diabGenerator(t), reg, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	parP, err := ComputePartialWorkersCtx(context.Background(), diabGenerator(t), reg, 0.25, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seqP, parP, "partial")
	if parP.AllExact() {
		t.Error("partial pass must mark rows inexact")
	}
}
