package feature

import (
	"context"
	"errors"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

func cancelTestGenerator(t *testing.T) *view.Generator {
	t.Helper()
	tbl := dataset.GenerateSYN(dataset.SYNConfig{Rows: 500, Seed: 3})
	target := dataset.GenerateSYN(dataset.SYNConfig{Rows: 120, Seed: 4})
	target.Name = tbl.Name + "_dq"
	g, err := view.NewGenerator(tbl, target, view.SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCancelledComputeReturnsNoMatrix(t *testing.T) {
	g := cancelTestGenerator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		m, err := ComputePartialWorkersCtx(ctx, g, StandardRegistry(), 1, workers)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if m != nil {
			t.Fatalf("workers=%d: got a matrix from a cancelled pass", workers)
		}
	}
}

func TestCancelledComputePartialReturnsNoMatrix(t *testing.T) {
	g := cancelTestGenerator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := ComputePartialWorkersCtx(ctx, g, StandardRegistry(), 0.25, 2)
	if !errors.Is(err, context.Canceled) || m != nil {
		t.Fatalf("m, err = %v, %v", m, err)
	}
}

// TestCancelMidComputeIsCleanForRetry pins that a pass cancelled partway
// leaves the generator reusable: the single-flight caches hold only
// completed scans, so a retry under a fresh context computes the full
// matrix bit-identically to an uninterrupted run.
func TestCancelMidComputeIsCleanForRetry(t *testing.T) {
	reg := StandardRegistry()
	want, err := ComputeWorkers(cancelTestGenerator(t), reg, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := cancelTestGenerator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputePartialWorkersCtx(ctx, g, reg, 1, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	got, err := ComputePartialWorkersCtx(context.Background(), g, reg, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("retry matrix has %d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d feature %d: %v != %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}
