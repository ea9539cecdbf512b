package metric

import (
	"fmt"
	"math"
)

// epsilon smooths zero bins for KL divergence so empty bins do not produce
// infinities; it is far below any mass a real view can carry.
const epsilon = 1e-9

func checkPair(p, q []float64) error {
	if len(p) != len(q) {
		return fmt.Errorf("metric: distributions have %d and %d bins", len(p), len(q))
	}
	if len(p) == 0 {
		return fmt.Errorf("metric: empty distributions")
	}
	return nil
}

// L1 returns the Manhattan distance Σ|pᵢ−qᵢ|.
func L1(p, q []float64) (float64, error) {
	if err := checkPair(p, q); err != nil {
		return 0, err
	}
	d := 0.0
	for i := range p {
		d += math.Abs(p[i] - q[i])
	}
	return d, nil
}

// Normalize scales non-negative bin values into a probability distribution
// (Eq. 5). An all-zero histogram normalises to the uniform distribution so
// downstream distances stay defined.
func Normalize(bins []float64) []float64 {
	out := make([]float64, len(bins))
	total := 0.0
	for _, v := range bins {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		u := 1 / float64(len(bins))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, v := range bins {
		if v > 0 {
			out[i] = v / total
		}
	}
	return out
}
