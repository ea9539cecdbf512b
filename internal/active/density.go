package active

import (
	"fmt"
	"math"

	"viewseeker/internal/ml"
)

// DensityWeighted implements information-density sampling (Settles &
// Craven, 2008): plain uncertainty sampling chases outliers — views that
// are hard to classify because nothing resembles them — whereas labelling
// a view from a dense region of feature space informs the model about all
// its neighbours. The selection score is
//
//	uncertainty(x) · density(x)^β
//
// where density is the mean similarity of x to the rest of the space.
type DensityWeighted struct {
	// densities is cached per view space, keyed on the scaler it was
	// computed under: the session hands over a new scaler exactly when
	// refinement rewrites rows, and the cache holds the old pointer, so an
	// address cannot be reused for different rows.
	densities     []float64
	densityScaler *ml.Scaler
}

// densityBeta is β, which trades informativeness against
// representativeness: at 1 uncertainty and density weigh equally.
const densityBeta = 1

// Select implements Strategy.
func (d *DensityWeighted) Select(rows [][]float64, scaler *ml.Scaler, labeled map[int]float64) (int, bool, error) {
	if err := validateSelect(rows); err != nil {
		return 0, false, err
	}
	if scaler == nil {
		return 0, false, fmt.Errorf("active: density weighting needs the whole-space scaler")
	}
	d.ensureDensities(rows, scaler)
	model, err := fitUncertainty(rows, scaler, labeled)
	if err != nil {
		return 0, false, err
	}
	score := func(i int) float64 {
		return model.Uncertainty(rows[i]) * math.Pow(d.densities[i], densityBeta)
	}
	idx, ok := best(len(rows), labeled, score)
	return idx, ok, nil
}

// ensureDensities computes (once per scaler, so once per version of the
// rows) each row's mean similarity to every other row, over standardised
// features.
func (d *DensityWeighted) ensureDensities(rows [][]float64, scaler *ml.Scaler) {
	if d.densityScaler == scaler {
		return
	}
	n := len(rows)
	d.densityScaler = scaler
	d.densities = make([]float64, n)
	std := scaler.TransformAll(rows)
	for i := 0; i < n; i++ {
		total := 0.0
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			dist := 0.0
			for t := range std[i] {
				diff := std[i][t] - std[j][t]
				dist += diff * diff
			}
			total += 1 / (1 + math.Sqrt(dist))
		}
		if n > 1 {
			d.densities[i] = total / float64(n-1)
		} else {
			d.densities[i] = 1
		}
	}
}
