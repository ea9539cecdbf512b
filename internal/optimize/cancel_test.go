package optimize

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRefineCancelledContextStopsWithinOneRow(t *testing.T) {
	m := partialMatrix(t)
	r := NewRefiner(m)
	r.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	var rows atomic.Int32
	r.OnRow = func(int) {
		if rows.Add(1) == 1 {
			cancel()
		}
	}
	n, err := r.RefineCtx(ctx, nil, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Sequential refinement checks the context before every row: the row
	// that triggered cancellation is the last one refreshed.
	if got := rows.Load(); got != 1 {
		t.Errorf("refreshed %d rows after cancellation, want 1", got)
	}
	if n > 1 {
		t.Errorf("reported %d refreshed rows", n)
	}
	if m.AllExact() {
		t.Error("cancelled refinement claims to have finished the matrix")
	}
}

func TestRefinePreCancelledContextRefreshesNothing(t *testing.T) {
	m := partialMatrix(t)
	r := NewRefiner(m)
	before := exactCount(m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := r.RefineCtx(ctx, nil, time.Hour)
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("n, err = %d, %v", n, err)
	}
	if exactCount(m) != before {
		t.Errorf("pre-cancelled refine changed the matrix")
	}
}

func TestRefineAfterCancelResumesCleanly(t *testing.T) {
	m := partialMatrix(t)
	r := NewRefiner(m)
	r.Workers = 1
	ctx, cancel := context.WithCancel(context.Background())
	var rows atomic.Int32
	r.OnRow = func(int) {
		if rows.Add(1) == 2 {
			cancel()
		}
	}
	if _, err := r.RefineCtx(ctx, nil, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	r.OnRow = nil
	// Refinement is monotonic: a fresh call under a live context finishes
	// the job the cancelled one started.
	if _, err := r.RefineCtx(context.Background(), nil, time.Hour); err != nil {
		t.Fatal(err)
	}
	if !m.AllExact() {
		t.Error("resumed refinement did not finish the matrix")
	}
}
