package active

import (
	"fmt"
	"sort"

	"viewseeker/internal/ml"
)

// PositiveThreshold splits the user's 0–1 interest labels into the
// positive and negative classes the uncertainty estimators train on, and
// the cold-start stage's exit test uses the same split.
const PositiveThreshold = 0.5

// Strategy selects the unlabelled view index to present next; ok is false
// once every view is labelled. rows is the feature matrix of the whole
// view space and scaler its standardiser (ml.FitScaler over rows): the
// session fits it once per feature-matrix version and passes the same
// pointer until the rows change. The model- and distance-based strategies
// require it; ColdStart and Random ignore it. labeled maps view index →
// the user's label for every view already labelled.
type Strategy interface {
	Select(rows [][]float64, scaler *ml.Scaler, labeled map[int]float64) (idx int, ok bool, err error)
}

// binarized returns the labelled rows in ascending index order with their
// labels split at PositiveThreshold: the training set of every
// model-based strategy. The order is fixed because gradient descent is
// order-sensitive; ranging over the map would let identical sessions
// select different views.
func binarized(rows [][]float64, labeled map[int]float64) (x [][]float64, y []float64) {
	idx := make([]int, 0, len(labeled))
	for i := range labeled {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	x = make([][]float64, len(idx))
	y = make([]float64, len(idx))
	for j, i := range idx {
		x[j] = rows[i]
		if labeled[i] >= PositiveThreshold {
			y[j] = 1
		}
	}
	return x, y
}

// fitUncertainty trains a fresh logistic uncertainty estimator on the
// binarised labels. Features are standardised by the whole-space scaler:
// the model scores every unlabelled view, and labelled-only statistics
// make near-constant features explode off-sample (see
// ml.LinearRegression). With no labels the model stays unfitted and rates
// every view equally uncertain.
func fitUncertainty(rows [][]float64, scaler *ml.Scaler, labeled map[int]float64) (*ml.LogisticRegression, error) {
	model := &ml.LogisticRegression{}
	x, y := binarized(rows, labeled)
	if len(x) == 0 {
		return model, nil
	}
	if err := model.Fit(x, y, scaler, nil); err != nil {
		return nil, err
	}
	return model, nil
}

// unlabeledIndices returns the sorted indices not yet labelled.
func unlabeledIndices(n int, labeled map[int]float64) []int {
	out := make([]int, 0, n-len(labeled))
	for i := 0; i < n; i++ {
		if _, ok := labeled[i]; !ok {
			out = append(out, i)
		}
	}
	return out
}

// best returns the unlabelled view of [0, n) with the highest score in one
// pass: the lowest index wins a tie, and a NaN score never beats a number
// (an all-NaN field goes to its lowest index). ok is false when every view
// is labelled.
func best(n int, labeled map[int]float64, score func(i int) float64) (idx int, ok bool) {
	var top float64
	for i := 0; i < n; i++ {
		if _, done := labeled[i]; done {
			continue
		}
		s := score(i)
		if !ok || s > top || (top != top && s == s) {
			idx, top, ok = i, s, true
		}
	}
	return idx, ok
}

func validateSelect(rows [][]float64) error {
	if len(rows) == 0 {
		return fmt.Errorf("active: empty view space")
	}
	return nil
}
