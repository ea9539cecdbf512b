package feature

import (
	"context"
	"math/rand"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

// TestMatrixMatchesReferenceKernels pins the offline phase's output to
// per-pair vectors over stats scanned directly with view.CollectStats,
// outside the generator's caches: the feature matrix (exact and
// α-sampled) must be bit-identical to them. view's own kernel tests hold
// CollectStats bit-identical to the row-at-a-time reference scan, so a
// kernel regression that changes any accumulator by one ULP fails there,
// and a wiring regression between the scans and the matrix fails here.
func TestMatrixMatchesReferenceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "num", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m1", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m2", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
	)
	ref := dataset.NewTable("ref", schema)
	for i := 0; i < 600; i++ {
		m1 := dataset.Float(rng.NormFloat64() * 5)
		if rng.Intn(9) == 0 {
			m1 = dataset.Null
		}
		ref.MustAppendRow(
			dataset.StringVal(string(rune('a'+rng.Intn(5)))),
			dataset.Float(rng.Float64()*50),
			m1,
			dataset.Int(int64(rng.Intn(40))),
		)
	}
	var sel []int
	for i := 0; i < ref.NumRows(); i += 6 {
		sel = append(sel, i)
	}
	tgt := ref.Subset("tgt", sel)
	g, err := view.NewGenerator(ref, tgt, view.SpaceConfig{BinCounts: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	reg := StandardRegistry()
	measures := ref.Schema.Measures()

	scan := func(tab *dataset.Table, layout *view.BinLayout, rows []int) *view.Stats {
		t.Helper()
		bins, err := view.BinIndexAll(tab, []*view.BinLayout{layout})
		if err != nil {
			t.Fatal(err)
		}
		st, err := view.CollectStats(tab, layout, measures, rows, bins[0])
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	referenceVector := func(s view.Spec, refRows []int) []float64 {
		t.Helper()
		layout := g.Layout(s)
		vec, err := perPairRow(reg, s, scan(ref, layout, refRows), scan(tgt, layout, nil))
		if err != nil {
			t.Fatal(err)
		}
		return vec
	}

	exact, err := ComputeWorkers(g, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range exact.Specs {
		want := referenceVector(s, nil)
		for j := range want {
			if exact.Rows[i][j] != want[j] {
				t.Fatalf("exact matrix %s feature %q: kernel %v != reference %v",
					s, exact.Names[j], exact.Rows[i][j], want[j])
			}
		}
	}

	const alpha = 0.2
	partial, err := ComputePartialWorkersCtx(context.Background(), g, reg, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	sampleRows := ref.SampleRows(alpha)
	for i, s := range partial.Specs {
		want := referenceVector(s, sampleRows)
		for j := range want {
			if partial.Rows[i][j] != want[j] {
				t.Fatalf("partial matrix %s feature %q: kernel %v != reference %v",
					s, partial.Names[j], partial.Rows[i][j], want[j])
			}
		}
	}
}
