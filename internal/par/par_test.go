package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.NumCPU() {
		t.Errorf("Resolve(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Resolve(-3); got != runtime.NumCPU() {
		t.Errorf("Resolve(-3) = %d", got)
	}
	if got := Resolve(5); got != 5 {
		t.Errorf("Resolve(5) = %d", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		var hits [57]atomic.Int32
		err := ForEach(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestForEachFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	err := ForEach(1000, 4, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Scheduling after the failure must stop: far fewer than 1000 calls.
	if n := calls.Load(); n >= 1000 {
		t.Errorf("ran all %d calls despite early error", n)
	}
}

func TestForEachSequentialStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := ForEach(10, 1, func(i int) error {
		calls++
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || calls != 3 {
		t.Errorf("err = %v, calls = %d, want boom after 3", err, calls)
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, 4, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int32
		err := ForEachCtx(ctx, 100, workers, func(i int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("workers=%d: %d items ran under a pre-cancelled context", workers, n)
		}
	}
}

// TestForEachCtxCancelMidRun proves the acceptance bound: once the context
// is cancelled, every worker exits within one work item — the item it was
// already inside may finish, but no worker claims another. The bound is
// counted from when cancel() has returned, not from the tenth call: the
// worker that reaches the tenth call can be preempted before it cancels,
// and the others keep claiming items in the meantime.
func TestForEachCtxCancelMidRun(t *testing.T) {
	const n, workers, cancelAt = 1000, 4, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls, late atomic.Int32
	var cancelled atomic.Bool
	err := ForEachCtx(ctx, n, workers, func(i int) error {
		if cancelled.Load() {
			late.Add(1)
		}
		if calls.Add(1) == cancelAt {
			cancel()
			cancelled.Store(true)
		}
		return nil
	})
	if got := calls.Load(); got < n && !errors.Is(err, context.Canceled) {
		t.Fatalf("ran %d of %d items, err = %v, want context.Canceled", got, n, err)
	}
	// After cancel() returns, each other worker may enter at most the one
	// item it claimed before it saw the cancellation; the cancelling worker
	// enters none.
	if got := late.Load(); got > workers-1 {
		t.Errorf("%d items began after cancel, want ≤ %d (one per other worker)", got, workers-1)
	}
}

func TestForEachCtxSequentialCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	err := ForEachCtx(ctx, 100, 1, func(i int) error {
		calls++
		if i == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The item that cancelled finishes; the next context check fires before
	// item 6 starts.
	if calls != 6 {
		t.Errorf("ran %d items, want exactly 6", calls)
	}
}

// TestForEachCtxWorkersOneEquivalence pins that under a background context
// the workers=1 path is the exact sequential loop: same call order, same
// first-error behaviour as ForEach.
func TestForEachCtxWorkersOneEquivalence(t *testing.T) {
	boom := errors.New("boom")
	run := func(f func(n, workers int, fn func(int) error) error) (order []int, err error) {
		err = f(20, 1, func(i int) error {
			order = append(order, i)
			if i == 13 {
				return boom
			}
			return nil
		})
		return order, err
	}
	ctxRun := func(n, workers int, fn func(int) error) error {
		return ForEachCtx(context.Background(), n, workers, fn)
	}
	plainOrder, plainErr := run(ForEach)
	ctxOrder, ctxErr := run(ctxRun)
	if !errors.Is(plainErr, boom) || !errors.Is(ctxErr, boom) {
		t.Fatalf("errs = %v, %v", plainErr, ctxErr)
	}
	if len(plainOrder) != len(ctxOrder) {
		t.Fatalf("call counts differ: %d vs %d", len(plainOrder), len(ctxOrder))
	}
	for i := range plainOrder {
		if plainOrder[i] != ctxOrder[i] {
			t.Fatalf("call order diverges at %d: %d vs %d", i, plainOrder[i], ctxOrder[i])
		}
	}
}

func TestForEachCtxErrorBeatsLateCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx := context.Background()
	err := ForEachCtx(ctx, 50, 4, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
