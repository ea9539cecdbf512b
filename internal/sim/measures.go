package sim

import "fmt"

// tieEps is the tolerance under which two ideal utilities count as equal
// when judging top-k membership — the "views directly after the kth view
// may have very close, or even identical, utility" problem that motivates
// the paper's UD measure.
const tieEps = 1e-9

// Precision computes the paper's top-k precision |Vp ∩ V*| / k, counting a
// predicted view as correct when its ideal utility is at least the k-th
// best ideal utility (within tieEps), so that swapping exactly-tied
// borderline views does not read as an error.
func Precision(pred []int, idealScores []float64, k int) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("sim: k must be positive, got %d", k)
	}
	if len(pred) < k {
		return 0, fmt.Errorf("sim: prediction has %d views, need %d", len(pred), k)
	}
	ideal := TopKByScore(idealScores, k)
	kthScore := idealScores[ideal[len(ideal)-1]]
	hit := 0
	for _, v := range pred[:k] {
		if v < 0 || v >= len(idealScores) {
			return 0, fmt.Errorf("sim: predicted view %d out of range", v)
		}
		if idealScores[v] >= kthScore-tieEps {
			hit++
		}
	}
	return float64(hit) / float64(k), nil
}

// utilityDistance computes Eq. 8: the per-view gap between the total ideal
// utility of the ideal top-k and of the predicted top-k. It is 0 exactly
// when the prediction's views are collectively as good as the ideal set,
// even if tied views swapped places.
func utilityDistance(pred []int, idealScores []float64, k int) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("sim: k must be positive, got %d", k)
	}
	if len(pred) < k {
		return 0, fmt.Errorf("sim: prediction has %d views, need %d", len(pred), k)
	}
	ideal := TopKByScore(idealScores, k)
	var sumIdeal, sumPred float64
	for _, v := range ideal {
		sumIdeal += idealScores[v]
	}
	for _, v := range pred[:k] {
		if v < 0 || v >= len(idealScores) {
			return 0, fmt.Errorf("sim: predicted view %d out of range", v)
		}
		sumPred += idealScores[v]
	}
	ud := (sumIdeal - sumPred) / float64(k)
	if ud < 0 {
		ud = 0 // guard fp noise; the ideal set maximises total utility
	}
	return ud, nil
}
