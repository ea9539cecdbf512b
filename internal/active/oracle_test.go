package active

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// topByScore ranks candidates with a stable sort, highest score first,
// ties broken by ascending index. best must pick its first entry: it is
// the oracle best is held to.
func topByScore(candidates []int, score func(i int) float64) []int {
	type scored struct {
		idx   int
		score float64
	}
	ss := make([]scored, len(candidates))
	for i, c := range candidates {
		ss[i] = scored{c, score(c)}
	}
	sort.SliceStable(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score > ss[b].score
		}
		return ss[a].idx < ss[b].idx
	})
	out := make([]int, len(ss))
	for i := range ss {
		out[i] = ss[i].idx
	}
	return out
}

// TestBestMatchesTopByScore holds best to the sort-based oracle's first
// entry on random score vectors drawn from a few values, so ties are
// common, with random labelled subsets (all of them, sometimes).
func TestBestMatchesTopByScore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	levels := []float64{-1, 0, 0.25, 0.5, 1, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		scores := make([]float64, n)
		for i := range scores {
			if rng.Intn(3) == 0 {
				scores[i] = rng.Float64()
			} else {
				scores[i] = levels[rng.Intn(len(levels))]
			}
		}
		labeled := map[int]float64{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				labeled[i] = 1
			}
		}
		score := func(i int) float64 { return scores[i] }
		want := topByScore(unlabeledIndices(n, labeled), score)
		got, ok := best(n, labeled, score)
		if ok != (len(want) > 0) || (ok && got != want[0]) {
			t.Fatalf("scores %v labelled %v: best = %d, %v; oracle %v", scores, labeled, got, ok, want)
		}
	}
}

// TestBestNaNNeverBeatsANumber pins best's NaN rule: a NaN score loses to
// every number wherever it stands, and an all-NaN field goes to its lowest
// unlabelled index. The sort oracle has no rule here — with a NaN present
// its comparator is not a strict weak order.
func TestBestNaNNeverBeatsANumber(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		scores  []float64
		labeled map[int]float64
		want    int
	}{
		{[]float64{nan, 0.1, 0.3}, nil, 2},
		{[]float64{nan, math.Inf(-1)}, nil, 1},
		{[]float64{0.2, nan, 0.1}, nil, 0},
		{[]float64{nan, nan, -5, nan}, nil, 2},
		{[]float64{nan, nan, nan}, nil, 0},
		{[]float64{nan, nan, nan}, map[int]float64{0: 1}, 1},
		{[]float64{1, nan, 0}, map[int]float64{0: 1}, 2},
	} {
		got, ok := best(len(c.scores), c.labeled, func(i int) float64 { return c.scores[i] })
		if !ok || got != c.want {
			t.Errorf("scores %v labelled %v: best = %d, %v; want %d", c.scores, c.labeled, got, ok, c.want)
		}
	}
}
