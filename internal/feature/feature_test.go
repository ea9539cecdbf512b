package feature

import (
	"context"
	"math"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

func demoGenerator(t *testing.T) *view.Generator {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m2", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	ref := dataset.NewTable("ref", schema)
	for i := 0; i < 120; i++ {
		cat := string(rune('a' + i%4))
		ref.MustAppendRow(dataset.StringVal(cat), dataset.Float(float64(i)), dataset.Float(float64(i%7)))
	}
	var rows []int
	for i := 0; i < 120; i++ {
		if i%4 == 0 || (i%4 == 1 && i < 40) {
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

func TestStandardRegistry(t *testing.T) {
	r := StandardRegistry()
	if r.Len() != 8 {
		t.Fatalf("standard registry has %d features, want 8", r.Len())
	}
	want := []string{KL, EMD, L1, L2, MaxDiff, Usability, Accuracy, PValue}
	names := r.Names()
	for i, w := range want {
		if names[i] != w {
			t.Errorf("feature %d = %s, want %s", i, names[i], w)
		}
	}
	if r.Index(EMD) != 1 || r.Index("nope") != -1 {
		t.Error("Index lookup wrong")
	}
}

func TestRegistryAdd(t *testing.T) {
	r := StandardRegistry()
	f := Feature{Name: "X", Compute: func(p *view.Pair) (float64, error) { return 1, nil }}
	if err := r.Add(f); err != nil {
		t.Fatal(err)
	}
	if r.Index("X") != 8 {
		t.Errorf("custom feature at %d, want 8 (after the standard eight)", r.Index("X"))
	}
	if err := r.Add(f); err == nil {
		t.Error("duplicate name should fail")
	}
	if err := r.Add(Feature{Name: KL, Compute: f.Compute}); err == nil {
		t.Error("redefining a standard feature should fail")
	}
	if err := r.Add(Feature{Name: ""}); err == nil {
		t.Error("empty feature should fail")
	}
}

func TestVectorValues(t *testing.T) {
	g := demoGenerator(t)
	r := StandardRegistry()
	p, err := g.Pair(view.Spec{Dimension: "cat", Measure: "m", Agg: "COUNT"})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := r.Vector(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 8 {
		t.Fatalf("vector length = %d", len(vec))
	}
	// The target is skewed toward cat a/b, so deviations are positive.
	for i, name := range []string{KL, EMD, L1, L2, MaxDiff} {
		if vec[i] <= 0 {
			t.Errorf("%s = %v, want > 0 for a skewed target", name, vec[i])
		}
	}
	// Usability depends only on bin count (4 bins here).
	u := vec[r.Index(Usability)]
	if u <= 0 || u > 1 {
		t.Errorf("usability = %v", u)
	}
	// All features are finite.
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %d (%s) = %v", i, r.Names()[i], v)
		}
	}
}

func TestComputeMatrix(t *testing.T) {
	g := demoGenerator(t)
	r := StandardRegistry()
	m, err := ComputeWorkers(g, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1 dim × 2 measures × 5 aggs = 10 views.
	if m.Len() != 10 {
		t.Fatalf("matrix rows = %d, want 10", m.Len())
	}
	if !m.AllExact() || m.ExactCount() != 10 {
		t.Error("full compute must be exact")
	}
	for _, row := range m.Rows {
		if len(row) != 8 {
			t.Fatalf("row width = %d", len(row))
		}
	}
}

func TestComputePartialAndRefresh(t *testing.T) {
	g := demoGenerator(t)
	r := StandardRegistry()
	exact, err := ComputeWorkers(g, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ComputePartialWorkersCtx(context.Background(), g, r, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if part.AllExact() {
		t.Error("partial matrix must be marked inexact")
	}
	// Refresh one row: it must now match the exact matrix bit-for-bit.
	if err := part.RefreshRow(3); err != nil {
		t.Fatal(err)
	}
	if !part.Exact[3] {
		t.Error("refreshed row not marked exact")
	}
	for j := range part.Rows[3] {
		if part.Rows[3][j] != exact.Rows[3][j] {
			t.Errorf("refreshed row differs at %d: %v vs %v", j, part.Rows[3][j], exact.Rows[3][j])
		}
	}
	if part.ExactCount() != 1 {
		t.Errorf("exact count = %d", part.ExactCount())
	}
	// Refreshing again is a no-op, refreshing out of range errors.
	if err := part.RefreshRow(3); err != nil {
		t.Fatal(err)
	}
	if err := part.RefreshRow(-1); err == nil {
		t.Error("out-of-range refresh should fail")
	}
	if err := part.RefreshRow(99); err == nil {
		t.Error("out-of-range refresh should fail")
	}
}

func TestComputePartialAlphaValidation(t *testing.T) {
	g := demoGenerator(t)
	r := StandardRegistry()
	if _, err := ComputePartialWorkersCtx(context.Background(), g, r, 0, 0); err == nil {
		t.Error("alpha 0 should fail")
	}
	if _, err := ComputePartialWorkersCtx(context.Background(), g, r, 1.5, 0); err == nil {
		t.Error("alpha > 1 should fail")
	}
	m, err := ComputePartialWorkersCtx(context.Background(), g, r, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.AllExact() {
		t.Error("alpha = 1 should compute exactly")
	}
}

func TestPartialApproximatesExact(t *testing.T) {
	// On a large uniform dataset, sampled deviation features land near the
	// exact values — the premise of the optimisation.
	ref := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 20_000, Seed: 5})
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
	r := StandardRegistry()
	exact, err := ComputeWorkers(g, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := ComputePartialWorkersCtx(context.Background(), g, r, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	emdIdx := r.Index(EMD)
	var sumAbs, sumRef float64
	for i := range exact.Rows {
		sumAbs += math.Abs(exact.Rows[i][emdIdx] - part.Rows[i][emdIdx])
		sumRef += math.Abs(exact.Rows[i][emdIdx])
	}
	if sumRef == 0 {
		t.Fatal("degenerate: exact EMD all zero")
	}
	if sumAbs/sumRef > 0.5 {
		t.Errorf("sampled EMD relative error = %.2f, want < 0.5", sumAbs/sumRef)
	}
}

func TestCustomFeature(t *testing.T) {
	g := demoGenerator(t)
	r := StandardRegistry()
	err := r.Add(Feature{
		Name: "TARGET_MASS",
		Compute: func(p *view.Pair) (float64, error) {
			return totalCount(p.Target), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ComputeWorkers(g, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows[0]) != 9 {
		t.Fatalf("row width = %d, want 9", len(m.Rows[0]))
	}
	if m.Rows[0][8] <= 0 {
		t.Errorf("custom feature = %v", m.Rows[0][8])
	}
}
