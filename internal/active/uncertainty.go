package active

import "viewseeker/internal/ml"

// Uncertainty implements least-confidence uncertainty sampling (Eq. 6–7):
// it trains a logistic-regression uncertainty estimator on the labels seen
// so far (binarised at PositiveThreshold) and presents the views whose
// predicted class probability is closest to 0.5.
type Uncertainty struct{}

// Select implements Strategy.
func (u *Uncertainty) Select(rows [][]float64, scaler *ml.Scaler, labeled map[int]float64, m int) ([]int, error) {
	if err := validateSelect(rows, m); err != nil {
		return nil, err
	}
	candidates := unlabeledIndices(len(rows), labeled)
	if len(candidates) == 0 {
		return nil, nil
	}
	model, err := fitUncertainty(rows, scaler, labeled)
	if err != nil {
		return nil, err
	}
	return topByScore(candidates, func(i int) float64 { return model.Uncertainty(rows[i]) }, m), nil
}
