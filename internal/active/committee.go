package active

import (
	"math"
	"math/rand"

	"viewseeker/internal/ml"
)

// Committee implements query-by-committee [24]: it trains several
// uncertainty estimators on bootstrap resamples of the labelled set and
// presents the views the committee disagrees on most (vote entropy). It is
// an alternative to least-confidence sampling and one of the ablation
// points DESIGN.md calls out.
type Committee struct {
	// Seed drives bootstrap resampling.
	Seed int64

	rng *rand.Rand
}

// committeeSize is the number of bootstrap members that vote.
const committeeSize = 5

// Name implements Strategy.
func (c *Committee) Name() string { return "committee" }

// Select implements Strategy.
func (c *Committee) Select(rows [][]float64, labeled map[int]float64, m int) ([]int, error) {
	if err := validateSelect(rows, m); err != nil {
		return nil, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return nil, nil
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.Seed))
	}
	poolX, poolY := binarized(rows, labeled)
	// One whole-space scaler shared by every member: the members' weight
	// vectors then live in the same standardised feature space, which is
	// what lets a later member warm-start from an earlier one's optimum
	// (and what makes their votes comparable in the first place).
	var scaler *ml.Scaler
	if len(poolX) > 0 {
		var err error
		if scaler, err = ml.FitScaler(rows); err != nil {
			return nil, err
		}
	}
	var members []*ml.LogisticRegression
	for k := 0; k < committeeSize; k++ {
		model := ml.NewLogisticRegression()
		if len(poolX) > 0 {
			x := make([][]float64, len(poolX))
			y := make([]float64, len(poolX))
			for j := range poolX {
				e := c.rng.Intn(len(poolX))
				x[j], y[j] = poolX[e], poolY[e]
			}
			model.ExternalScaler = scaler
			// Warm-start each member from its predecessor: the resamples
			// overlap heavily, so the previous optimum is a few gradient
			// steps from the next one. The chain lives entirely inside this
			// call — members are fresh models, so Select stays a function of
			// its arguments and the rng state, same as before.
			if k > 0 {
				model.WarmStart = true
				model.SeedFrom(members[k-1])
			}
			if err := model.Fit(x, y); err != nil {
				return nil, err
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
	return topByScore(candidates, entropy, m), nil
}
