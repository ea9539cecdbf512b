package core

import (
	"testing"
	"time"

	"viewseeker/internal/feature"
)

// TestRefinedSessionMatchesExactSession drives an optimised session long
// enough to refresh the whole promising region, then checks that (a) every
// refreshed row equals the exact matrix's row bit-for-bit and (b) the
// final recommendation matches what an exact session recommends.
func TestRefinedSessionMatchesExactSession(t *testing.T) {
	exact := buildMatrix(t, 0)
	partial := buildMatrix(t, 0.2)

	// Hidden utility: u* #4 (0.5·EMD + 0.5·KL) over min-max-normalised
	// exact features (inlined here — importing internal/sim from this
	// package's tests would be an import cycle).
	scores := normalisedCombo(exact, map[int]float64{0: 0.5, 1: 0.5}) // KL=0, EMD=1
	maxScore := 0.0
	for _, s := range scores {
		if s > maxScore {
			maxScore = s
		}
	}
	label := func(i int) float64 {
		l := scores[i] / maxScore
		if l > 1 {
			return 1
		}
		return l
	}

	run := func(m *feature.Matrix, refine bool) *Seeker {
		s, err := NewSeeker(m, Config{K: 5}, refine)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			next, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if err := s.Feedback(next, label(next)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	sExact := run(exact, false)
	sPart := run(partial, true)

	// (a) Refreshed rows equal the exact rows.
	for i, isExact := range partial.Exact {
		if !isExact {
			continue
		}
		for j := range partial.Rows[i] {
			if partial.Rows[i][j] != exact.Rows[i][j] {
				t.Fatalf("refreshed row %d differs at feature %d", i, j)
			}
		}
	}
	if exactCount(partial) == 0 {
		t.Fatal("session never refreshed anything")
	}
	if exactCount(partial) == partial.Len() {
		t.Log("note: every view was refreshed; pruning saved nothing at this scale")
	}

	// (b) The two sessions' recommendations agree on true utility: the
	// optimised top-5 total u* must be within a whisker of the exact one.
	sum := func(s *Seeker) float64 {
		total := 0.0
		for _, v := range s.TopK() {
			total += scores[v]
		}
		return total
	}
	if diff := sum(sExact) - sum(sPart); diff > 0.05*sum(sExact) {
		t.Errorf("optimised recommendation lost %.3f of %.3f true utility", diff, sum(sExact))
	}
}

// normalisedCombo evaluates a weighted sum of min-max-normalised feature
// columns over every row.
func normalisedCombo(m *feature.Matrix, weights map[int]float64) []float64 {
	out := make([]float64, m.Len())
	for col, w := range weights {
		lo, hi := m.Rows[0][col], m.Rows[0][col]
		for _, row := range m.Rows {
			if row[col] < lo {
				lo = row[col]
			}
			if row[col] > hi {
				hi = row[col]
			}
		}
		if hi <= lo {
			continue
		}
		for i, row := range m.Rows {
			out[i] += w * (row[col] - lo) / (hi - lo)
		}
	}
	return out
}

// TestRefinePriorityShape checks the ordering contract: the labelled view
// first, no duplicates, no exact rows, capped length, aggregate siblings
// adjacent to their family head.
func TestRefinePriorityShape(t *testing.T) {
	partial := buildMatrix(t, 0.2)
	s, err := NewSeeker(partial, Config{K: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	s.refineCap = 12
	got := s.refinePriority(7)
	if len(got) == 0 || len(got) > 12 {
		t.Fatalf("priority length = %d", len(got))
	}
	if got[0] != 7 {
		t.Errorf("labelled view must come first, got %d", got[0])
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate %d in priority", i)
		}
		seen[i] = true
		if partial.Exact[i] {
			t.Fatalf("exact row %d in priority", i)
		}
	}
	// The labelled view's aggregate siblings must be in the list (the cap
	// is 12 > family size 5).
	spec := partial.Specs[7]
	for j, other := range partial.Specs {
		if other.Dimension == spec.Dimension && other.Measure == spec.Measure && other.Bins == spec.Bins {
			if !seen[j] && !partial.Exact[j] {
				t.Errorf("sibling %d (%s) missing from priority", j, other)
			}
		}
	}
}

// TestRefineCapActuallyPrunes: with a tiny cap and few labels, most of
// the space must stay rough — the pruning the optimisation promises.
func TestRefineCapActuallyPrunes(t *testing.T) {
	partial := buildMatrix(t, 0.2)
	s, err := NewSeeker(partial, Config{K: 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Without a time limit the cap is the only thing that stops refinement.
	s.refineCap = 6
	s.refineBudget = time.Hour
	for i := 0; i < 4; i++ {
		next, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feedback(next, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := exactCount(partial); got > 4*6 {
		t.Errorf("refreshed %d rows with cap 6 over 4 labels", got)
	}
	if partial.AllExact() {
		t.Error("small cap must leave the tail rough")
	}
}

// exactCount returns how many of m's rows are exact.
func exactCount(m *feature.Matrix) int {
	n := 0
	for _, e := range m.Exact {
		if e {
			n++
		}
	}
	return n
}
