package active

import "viewseeker/internal/ml"

// Uncertainty implements least-confidence uncertainty sampling (Eq. 6–7):
// it trains a logistic-regression uncertainty estimator on the labels seen
// so far (binarised at PositiveThreshold) and presents the view whose
// predicted class probability is closest to 0.5.
type Uncertainty struct{}

// Select implements Strategy.
func (u *Uncertainty) Select(rows [][]float64, scaler *ml.Scaler, labeled map[int]float64) (int, bool, error) {
	if err := validateSelect(rows); err != nil {
		return 0, false, err
	}
	model, err := fitUncertainty(rows, scaler, labeled)
	if err != nil {
		return 0, false, err
	}
	idx, ok := best(len(rows), labeled, func(i int) float64 { return model.Uncertainty(rows[i]) })
	return idx, ok, nil
}
