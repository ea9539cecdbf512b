package core

import (
	"context"
	"testing"

	"viewseeker/internal/ml"
	"viewseeker/internal/obs"
)

// fromScratchWeights rebuilds the estimator the way a fresh session would:
// whole-space scaler over the matrix as it stands, then the labelled rows
// absorbed into sufficient statistics in labelling order. The incremental
// refit must match this bit for bit after every feedback — that is the
// determinism contract SessionState replay depends on.
func fromScratchWeights(t *testing.T, s *Seeker) ([]float64, float64) {
	t.Helper()
	scaler, err := ml.FitScaler(s.matrix.Rows)
	if err != nil {
		t.Fatal(err)
	}
	k := len(s.matrix.Rows[0])
	suff := ml.NewSuffStats(k)
	z := make([]float64, k)
	idxs, labels := s.Labels()
	for j, vi := range idxs {
		scaler.TransformInto(s.matrix.Rows[vi], z)
		if err := suff.Add(z, labels[j]); err != nil {
			t.Fatal(err)
		}
	}
	ref := &ml.LinearRegression{}
	if err := ref.FitSufficient(suff, scaler); err != nil {
		t.Fatal(err)
	}
	return ref.Weights()
}

// TestRefitMatchesFromScratch drives a refinement session — the hardest
// case, because row refreshes invalidate the cached scaler and statistics
// mid-session — and after every feedback compares the live estimator
// against a from-scratch rebuild over the same labels and current rows.
func TestRefitMatchesFromScratch(t *testing.T) {
	partial := buildMatrix(t, 0.25)
	s, err := NewSeeker(partial, Config{K: 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		next, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		label := float64(i%2)*0.8 + 0.1 // alternate 0.1 / 0.9
		if err := s.Feedback(next, label); err != nil {
			t.Fatal(err)
		}
		wantW, wantB := fromScratchWeights(t, s)
		gotW, gotB := s.Weights()
		if gotB != wantB {
			t.Fatalf("after label %d: bias %v, from-scratch %v", i, gotB, wantB)
		}
		for j := range wantW {
			if gotW[j] != wantW[j] {
				t.Fatalf("after label %d: weight %d = %v, from-scratch %v", i, j, gotW[j], wantW[j])
			}
		}
	}
}

// TestRefitIncrementalPath checks the fast path actually engages: over a
// stable matrix (no refinement), the first refit rebuilds and every later
// one is incremental — and a relabel, which rewrites an absorbed label in
// place, forces exactly one rebuild.
func TestRefitIncrementalPath(t *testing.T) {
	m := buildMatrix(t, 0)
	s, err := NewSeeker(m, Config{K: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), reg, nil)
	var first int
	for i := 0; i < 6; i++ {
		next, _, err := s.NextCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = next
		}
		if err := s.FeedbackCtx(ctx, next, float64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	rebuilds := reg.Counter("viewseeker_refit_rebuilds_total").Value()
	incr := reg.Counter("viewseeker_refit_incremental_total").Value()
	if rebuilds != 1 || incr != 5 {
		t.Fatalf("stable matrix: %d rebuilds, %d incremental; want 1 and 5", rebuilds, incr)
	}

	// Relabel the first view: the prefix no longer matches, so the next
	// refit must rebuild, and the estimator must equal a from-scratch fit.
	if err := s.FeedbackCtx(ctx, first, 1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("viewseeker_refit_rebuilds_total").Value(); got != 2 {
		t.Fatalf("relabel: %d rebuilds, want 2", got)
	}
	wantW, wantB := fromScratchWeights(t, s)
	gotW, gotB := s.Weights()
	if gotB != wantB {
		t.Fatalf("after relabel: bias %v, from-scratch %v", gotB, wantB)
	}
	for j := range wantW {
		if gotW[j] != wantW[j] {
			t.Fatalf("after relabel: weight %d = %v, from-scratch %v", j, gotW[j], wantW[j])
		}
	}
}
