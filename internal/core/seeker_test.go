package core

import (
	"context"
	"sort"
	"testing"

	"viewseeker/internal/active"
	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/view"
)

// buildMatrix creates a real feature matrix over a small skewed dataset.
func buildMatrix(t *testing.T, alpha float64) *feature.Matrix {
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
	reg := feature.StandardRegistry()
	var m *feature.Matrix
	if alpha > 0 && alpha < 1 {
		m, err = feature.ComputePartialWorkersCtx(context.Background(), g, reg, alpha, 0)
	} else {
		m, err = feature.ComputeWorkers(g, reg, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewSeekerValidation(t *testing.T) {
	if _, err := NewSeeker(nil, Config{}, false); err == nil {
		t.Error("nil matrix should fail")
	}
	m := buildMatrix(t, 0)
	if _, err := NewSeeker(m, Config{K: -1}, false); err == nil {
		t.Error("negative K should fail")
	}
	if _, err := NewSeeker(m, Config{}, false); err != nil {
		t.Errorf("default config should work: %v", err)
	}
}

func TestSeekerColdStartTransitions(t *testing.T) {
	m := buildMatrix(t, 0)
	s, err := NewSeeker(m, Config{K: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !s.InColdStart() {
		t.Error("session must start in cold start")
	}
	next, ok, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a fresh session presents a view")
	}
	// A positive then a negative label ends cold start.
	if err := s.Feedback(next, 0.9); err != nil {
		t.Fatal(err)
	}
	if !s.InColdStart() {
		t.Error("one class is not enough to exit cold start")
	}
	next, _, _ = s.Next()
	if err := s.Feedback(next, 0.1); err != nil {
		t.Fatal(err)
	}
	if s.InColdStart() {
		t.Error("positive + negative labels must end cold start")
	}
	if s.NumLabels() != 2 {
		t.Errorf("labels = %d", s.NumLabels())
	}
}

func TestSeekerFeedbackValidation(t *testing.T) {
	m := buildMatrix(t, 0)
	s, _ := NewSeeker(m, Config{}, false)
	if err := s.Feedback(-1, 0.5); err == nil {
		t.Error("negative index should fail")
	}
	if err := s.Feedback(0, 1.5); err == nil {
		t.Error("label > 1 should fail")
	}
	if err := s.Feedback(0, -0.1); err == nil {
		t.Error("label < 0 should fail")
	}
}

func TestSeekerLearnsLinearTarget(t *testing.T) {
	// Labels follow 0.5*EMD + 0.5*KL over the true features; after enough
	// labels the estimator must reproduce the target ranking exactly.
	m := buildMatrix(t, 0)
	s, err := NewSeeker(m, Config{K: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	emd, kl := 1, 0 // registry order: KL=0, EMD=1
	truth := make([]float64, m.Len())
	maxTruth := 0.0
	for i, row := range m.Rows {
		truth[i] = 0.5*row[emd] + 0.5*row[kl]
		if truth[i] > maxTruth {
			maxTruth = truth[i]
		}
	}
	for iter := 0; iter < 30; iter++ {
		next, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		label := truth[next] / maxTruth
		if label > 1 {
			label = 1
		}
		if err := s.Feedback(next, label); err != nil {
			t.Fatal(err)
		}
	}
	// The estimator must reproduce the target's top-5 (tie-aware): the
	// paper's success measure. Global pairwise ranking is deliberately not
	// asserted — ridge bias on rank-deficient labelled sets may flip pairs
	// the recommendation never surfaces.
	pred := s.TopK()
	kth := truth[pred[len(pred)-1]]
	idealSorted := append([]float64(nil), truth...)
	sort.Float64s(idealSorted)
	threshold := idealSorted[len(idealSorted)-5]
	_ = kth
	hits := 0
	for _, v := range pred {
		if truth[v] >= threshold-1e-9 {
			hits++
		}
	}
	if hits < 5 {
		t.Fatalf("top-5 precision = %d/5 after %d labels", hits, s.NumLabels())
	}
	// The learned model must score the truly-best view at least as high as
	// the truly-worst view by a clear margin.
	best, worst := 0, 0
	for i := range truth {
		if truth[i] > truth[best] {
			best = i
		}
		if truth[i] < truth[worst] {
			worst = i
		}
	}
	if s.Predict(best) <= s.Predict(worst) {
		t.Errorf("predictions do not separate best (%v) from worst (%v)",
			s.Predict(best), s.Predict(worst))
	}
}

func TestSeekerTopK(t *testing.T) {
	m := buildMatrix(t, 0)
	s, _ := NewSeeker(m, Config{K: 7}, false)
	top := s.TopK()
	if len(top) != 7 {
		t.Fatalf("topk = %d", len(top))
	}
	// Before feedback all predictions are 0: deterministic index order.
	for i, v := range top {
		if v != i {
			t.Errorf("untrained topk = %v", top)
			break
		}
	}
	// After feedback, the list is sorted by prediction.
	next, _, _ := s.Next()
	_ = s.Feedback(next, 1.0)
	next, _, _ = s.Next()
	_ = s.Feedback(next, 0.0)
	top = s.TopK()
	for i := 1; i < len(top); i++ {
		if s.Predict(top[i-1]) < s.Predict(top[i]) {
			t.Error("topk not sorted by prediction")
		}
	}
}

func TestSeekerWithRefinement(t *testing.T) {
	m := buildMatrix(t, 0.2)
	s, err := NewSeeker(m, Config{K: 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	before := exactCount(m)
	next, _, _ := s.Next()
	if err := s.Feedback(next, 0.8); err != nil {
		t.Fatal(err)
	}
	if exactCount(m) <= before {
		t.Error("feedback should trigger refinement of rough rows")
	}
}

func TestSeekerRelabelSameView(t *testing.T) {
	m := buildMatrix(t, 0)
	s, _ := NewSeeker(m, Config{}, false)
	_ = s.Feedback(3, 0.4)
	_ = s.Feedback(3, 0.6)
	if s.NumLabels() != 1 {
		t.Errorf("relabelling must not duplicate: %d", s.NumLabels())
	}
	idx, labels := s.Labels()
	if len(idx) != 1 || labels[0] != 0.6 {
		t.Errorf("labels = %v %v", idx, labels)
	}
}

func TestSeekerCustomStrategy(t *testing.T) {
	m := buildMatrix(t, 0)
	s, err := NewSeeker(m, Config{Strategy: &active.Random{Seed: 1}, K: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Exit cold start first.
	next, _, _ := s.Next()
	_ = s.Feedback(next, 1.0)
	next, _, _ = s.Next()
	_ = s.Feedback(next, 0.0)
	if _, _, err := s.Next(); err != nil {
		t.Fatalf("custom strategy selection failed: %v", err)
	}
}

func TestSessionStateRoundTrip(t *testing.T) {
	m := buildMatrix(t, 0)
	s1, err := NewSeeker(m, Config{K: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		next, _, err := s1.Next()
		if err != nil {
			t.Fatal(err)
		}
		label := 0.1 * float64(i+1)
		if err := s1.Feedback(next, label); err != nil {
			t.Fatal(err)
		}
	}
	st := s1.State()
	if st.Version != stateVersion || len(st.Views) != 6 {
		t.Fatalf("state = %+v", st)
	}

	s2, err := NewSeeker(m, Config{K: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if s2.NumLabels() != 6 {
		t.Fatalf("restored labels = %d", s2.NumLabels())
	}
	// Same labels → same estimator → same recommendation.
	t1, t2 := s1.TopK(), s2.TopK()
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("restored topk differs at %d: %d vs %d", i, t1[i], t2[i])
		}
	}
	// Cold-start position restored too: next selection matches.
	n1, ok1, err := s1.Next()
	if err != nil {
		t.Fatal(err)
	}
	n2, ok2, err := s2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 || ok1 != ok2 {
		t.Errorf("next views diverge after restore: %d (%v) vs %d (%v)", n1, ok1, n2, ok2)
	}
}

func TestRestoreValidation(t *testing.T) {
	m := buildMatrix(t, 0)
	s, _ := NewSeeker(m, Config{}, false)
	if err := s.Restore(SessionState{Version: 99}); err == nil {
		t.Error("wrong version should fail")
	}
	if err := s.Restore(SessionState{Version: stateVersion, Views: []int{1}, Labels: nil}); err == nil {
		t.Error("mismatched lengths should fail")
	}
	_ = s.Feedback(0, 0.5)
	if err := s.Restore(SessionState{Version: stateVersion}); err == nil {
		t.Error("restore into non-fresh session should fail")
	}
	s2, _ := NewSeeker(m, Config{}, false)
	if err := s2.Restore(SessionState{Version: stateVersion, Views: []int{-4}, Labels: []float64{0.5}}); err == nil {
		t.Error("bad view index should fail")
	}
}
