package active

import (
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
	densities []float64 // cached per space (keyed by len(rows))
	densityN  int
}

// densityBeta is β, which trades informativeness against
// representativeness: at 1 uncertainty and density weigh equally.
const densityBeta = 1

// Name implements Strategy.
func (d *DensityWeighted) Name() string { return "density" }

// Select implements Strategy.
func (d *DensityWeighted) Select(rows [][]float64, labeled map[int]float64, m int) ([]int, error) {
	if err := validateSelect(rows, m); err != nil {
		return nil, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return nil, nil
	}
	d.ensureDensities(rows)
	model, err := fitUncertainty(rows, labeled)
	if err != nil {
		return nil, err
	}
	score := func(i int) float64 {
		return model.Uncertainty(rows[i]) * math.Pow(d.densities[i], densityBeta)
	}
	return topByScore(candidates, score, m), nil
}

// ensureDensities computes (once per space) each row's mean similarity to
// every other row, over standardised features.
func (d *DensityWeighted) ensureDensities(rows [][]float64) {
	if d.densities != nil && d.densityN == len(rows) {
		return
	}
	n := len(rows)
	d.densityN = n
	d.densities = make([]float64, n)
	scaler, err := ml.FitScaler(rows)
	if err != nil {
		for i := range d.densities {
			d.densities[i] = 1
		}
		return
	}
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
