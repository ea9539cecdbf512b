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

// Strategy selects up to m unlabelled view indices to present next.
// rows is the feature matrix of the whole view space and scaler its
// standardiser (ml.FitScaler over rows): the session fits it once per
// feature-matrix version and passes the same pointer until the rows
// change. The model- and distance-based strategies require it; ColdStart
// and Random ignore it. labeled maps view index → the user's label for
// every view already labelled.
type Strategy interface {
	Select(rows [][]float64, scaler *ml.Scaler, labeled map[int]float64, m int) ([]int, error)
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

// topByScore returns up to m indices from candidates with the highest
// scores, ties broken by ascending index for determinism.
func topByScore(candidates []int, score func(i int) float64, m int) []int {
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
	if m > len(ss) {
		m = len(ss)
	}
	out := make([]int, m)
	for i := 0; i < m; i++ {
		out[i] = ss[i].idx
	}
	return out
}

func validateSelect(rows [][]float64, m int) error {
	if len(rows) == 0 {
		return fmt.Errorf("active: empty view space")
	}
	if m <= 0 {
		return fmt.Errorf("active: must request at least one view, got %d", m)
	}
	return nil
}
