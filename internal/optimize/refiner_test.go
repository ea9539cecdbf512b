package optimize

import (
	"context"
	"testing"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/view"
)

func partialMatrix(t *testing.T) *feature.Matrix {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	ref := dataset.NewTable("ref", schema)
	for i := 0; i < 200; i++ {
		ref.MustAppendRow(dataset.StringVal(string(rune('a'+i%5))), dataset.Float(float64(i)))
	}
	var rows []int
	for i := 0; i < 200; i += 5 {
		rows = append(rows, i)
	}
	tgt := ref.Subset("tgt", rows)
	g, err := view.NewGenerator(ref, tgt, view.SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := feature.ComputePartialWorkersCtx(context.Background(), g, feature.StandardRegistry(), 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRefineAllWithGenerousBudget(t *testing.T) {
	m := partialMatrix(t)
	r := NewRefiner(m)
	if r.Done() {
		t.Fatal("partial matrix should not start done")
	}
	n, err := r.RefineCtx(context.Background(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if n != m.Len() {
		t.Errorf("refreshed %d rows, want %d", n, m.Len())
	}
	if !r.Done() {
		t.Error("refiner should be done")
	}
	// Second call is a no-op.
	n, err = r.RefineCtx(context.Background(), nil, time.Minute)
	if err != nil || n != 0 {
		t.Errorf("second refine = %d, %v", n, err)
	}
}

func TestRefineZeroBudgetMakesMinimumProgress(t *testing.T) {
	m := partialMatrix(t)
	r := NewRefiner(m)
	n, err := r.RefineCtx(context.Background(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Errorf("zero budget refreshed %d rows, want ≥ 1 (MinPerCall)", n)
	}
	if m.ExactCount() != n {
		t.Errorf("exact count %d != refreshed %d", m.ExactCount(), n)
	}
}

func TestRefineHonoursPriorityOrder(t *testing.T) {
	m := partialMatrix(t)
	r := NewRefiner(m)
	// Sequential path: with one-row batches the deadline is checked before
	// every row, so the fake clock bounds the refresh count exactly.
	r.Workers = 1
	// Fake clock: every call advances 10ms, budget 25ms → ~3 refreshes.
	now := time.Unix(0, 0)
	r.Now = func() time.Time {
		now = now.Add(10 * time.Millisecond)
		return now
	}
	last := m.Len() - 1
	priority := []int{last, 0, 1, 2, 3, 4}
	n, err := r.RefineCtx(context.Background(), priority, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n >= m.Len() {
		t.Fatalf("refreshed %d", n)
	}
	if !m.Exact[last] {
		t.Error("highest-priority row was not refreshed first")
	}
}

func TestRefineParallelMatchesSequential(t *testing.T) {
	seq, par := partialMatrix(t), partialMatrix(t)
	rs := NewRefiner(seq)
	rs.Workers = 1
	rp := NewRefiner(par)
	rp.Workers = 8
	// Duplicate priority entries must be deduplicated (two goroutines
	// refreshing one row would race on its matrix slots).
	priority := []int{3, 3, 0, 1, 0, 2, 4}
	if _, err := rs.RefineCtx(context.Background(), priority, time.Minute); err != nil {
		t.Fatal(err)
	}
	n, err := rp.RefineCtx(context.Background(), priority, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("parallel refine refreshed %d rows, want 5 (duplicates skipped)", n)
	}
	for i := range seq.Rows {
		if seq.Exact[i] != par.Exact[i] {
			t.Errorf("row %d exactness differs", i)
		}
		for j := range seq.Rows[i] {
			if seq.Rows[i][j] != par.Rows[i][j] {
				t.Errorf("row %d feature %d differs: %v vs %v", i, j, seq.Rows[i][j], par.Rows[i][j])
			}
		}
	}
}

func TestRefineBadPriorityIndex(t *testing.T) {
	m := partialMatrix(t)
	r := NewRefiner(m)
	if _, err := r.RefineCtx(context.Background(), []int{9999}, time.Second); err == nil {
		t.Error("out-of-range priority should fail")
	}
	var empty Refiner
	if _, err := empty.RefineCtx(context.Background(), nil, time.Second); err == nil {
		t.Error("refiner without matrix should fail")
	}
}
