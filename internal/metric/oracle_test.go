package metric

import "math"

// The scalar deviation measures below are the specification DeviationsAll
// is held to (TestDeviationsAllMatchesScalar): one function per measure,
// each with the operation sequence the fused kernel replays. Production
// computes them only through DeviationsAll; L1, which the explanation
// layer also calls on its own, stays in deviation.go.

// KLDivergence returns D(p‖q) = Σ p·log(p/q) with epsilon smoothing. It is
// the "sum of deviation in individual bins" component of the paper.
func KLDivergence(p, q []float64) (float64, error) {
	if err := checkPair(p, q); err != nil {
		return 0, err
	}
	d := 0.0
	for i := range p {
		pi := p[i]
		if pi <= 0 {
			continue
		}
		qi := q[i]
		if qi < epsilon {
			qi = epsilon
		}
		d += pi * math.Log(pi/qi)
	}
	if d < 0 {
		d = 0 // guard tiny negative residue from smoothing
	}
	return d, nil
}

// EMD returns the 1-D Earth Mover's Distance between two distributions on
// the same ordered bins: the L1 distance of their CDFs. It is the
// "deviations across bins" component.
func EMD(p, q []float64) (float64, error) {
	if err := checkPair(p, q); err != nil {
		return 0, err
	}
	d, c := 0.0, 0.0
	for i := range p {
		c += p[i] - q[i]
		d += math.Abs(c)
	}
	return d, nil
}

// L2 returns the Euclidean distance √Σ(pᵢ−qᵢ)².
func L2(p, q []float64) (float64, error) {
	if err := checkPair(p, q); err != nil {
		return 0, err
	}
	d := 0.0
	for i := range p {
		t := p[i] - q[i]
		d += t * t
	}
	return math.Sqrt(d), nil
}

// MaxDiff returns the maximum per-bin deviation max|pᵢ−qᵢ|.
func MaxDiff(p, q []float64) (float64, error) {
	if err := checkPair(p, q); err != nil {
		return 0, err
	}
	m := 0.0
	for i := range p {
		if d := math.Abs(p[i] - q[i]); d > m {
			m = d
		}
	}
	return m, nil
}
