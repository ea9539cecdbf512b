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

// Select implements Strategy; it ignores the scaler. The pick is the head
// of a permutation of the unlabelled views, which fixes how far each pick
// advances the seeded stream, so a replayed session draws the same views.
func (r *Random) Select(rows [][]float64, _ *ml.Scaler, labeled map[int]float64) (int, bool, error) {
	if err := validateSelect(rows); err != nil {
		return 0, false, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return 0, false, nil
	}
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.Seed))
	}
	return candidates[r.rng.Perm(len(candidates))[0]], true, nil
}
