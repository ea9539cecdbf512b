package active

import (
	"math"
	"math/rand"

	"viewseeker/internal/ml"
)

// Committee implements query-by-committee [24]: it trains several
// uncertainty estimators on bootstrap resamples of the labelled set and
// presents the view the committee disagrees on most (vote entropy). It is
// an alternative to least-confidence sampling and one of the ablation
// points DESIGN.md calls out.
type Committee struct {
	// Seed drives bootstrap resampling.
	Seed int64

	rng *rand.Rand
}

// committeeSize is the number of bootstrap members that vote.
const committeeSize = 5

// Select implements Strategy.
func (c *Committee) Select(rows [][]float64, scaler *ml.Scaler, labeled map[int]float64) (int, bool, error) {
	if err := validateSelect(rows); err != nil {
		return 0, false, err
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.Seed))
	}
	poolX, poolY := binarized(rows, labeled)
	// Every member standardises by the one whole-space scaler, so the
	// members' weight vectors live in the same feature space: their votes
	// are comparable, and a later member can warm-start from an earlier
	// one's optimum.
	var members []*ml.LogisticRegression
	for k := 0; k < committeeSize; k++ {
		model := &ml.LogisticRegression{}
		if len(poolX) > 0 {
			x := make([][]float64, len(poolX))
			y := make([]float64, len(poolX))
			for j := range poolX {
				e := c.rng.Intn(len(poolX))
				x[j], y[j] = poolX[e], poolY[e]
			}
			// Warm-start each member from its predecessor: the resamples
			// overlap heavily, so the previous optimum is a few gradient
			// steps from the next one. The chain lives entirely inside this
			// call — members are fresh models, so Select stays a function of
			// its arguments and the rng state.
			var warm *ml.LogisticRegression
			if k > 0 {
				warm = members[k-1]
			}
			if err := model.Fit(x, y, scaler, warm); err != nil {
				return 0, false, err
			}
		}
		members = append(members, model)
	}
	entropy := func(i int) float64 {
		pos := 0
		for _, mdl := range members {
			if mdl.Prob(rows[i]) >= 0.5 {
				pos++
			}
		}
		p := float64(pos) / float64(len(members))
		if p == 0 || p == 1 {
			return 0
		}
		return -(p*math.Log2(p) + (1-p)*math.Log2(1-p))
	}
	idx, ok := best(len(rows), labeled, entropy)
	return idx, ok, nil
}
