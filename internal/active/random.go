package active

import (
	"math/rand"

	"viewseeker/internal/ml"
)

// Random samples unlabelled views uniformly — the baseline query strategy
// that active learning is measured against.
type Random struct {
	Seed int64
	rng  *rand.Rand
}

// Select implements Strategy; it ignores the scaler.
func (r *Random) Select(rows [][]float64, _ *ml.Scaler, labeled map[int]float64, m int) ([]int, error) {
	if err := validateSelect(rows, m); err != nil {
		return nil, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return nil, nil
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.Seed))
	}
	if m > len(candidates) {
		m = len(candidates)
	}
	out := make([]int, 0, m)
	for _, p := range r.rng.Perm(len(candidates))[:m] {
		out = append(out, candidates[p])
	}
	return out, nil
}
