package metric

import (
	"fmt"
	"math"
)

// NumDeviations is the number of deviation measures DeviationsAll emits,
// in its fixed output order: KL, EMD, L1, L2, MaxDiff.
const NumDeviations = 5

// Positions of each deviation measure in DeviationsAll's output.
const (
	DevKL = iota
	DevEMD
	DevL1
	DevL2
	DevMaxDiff
)

// DeviationsAll computes all five deviation measures between two
// distributions in one fused pass, writing them into out[:NumDeviations]
// in the order KL, EMD, L1, L2, MaxDiff. Each accumulator replays the
// exact floating-point operation sequence of the corresponding scalar
// function (KLDivergence, EMD, L1, L2, MaxDiff — all but L1 kept as test
// code), so results are bit-identical to the per-call path — the scalar
// functions remain the oracle for this kernel. It allocates nothing.
func DeviationsAll(p, q, out []float64) error {
	if err := checkPair(p, q); err != nil {
		return err
	}
	var kl, emd, cdf, l1, l2, maxd float64
	for i := range p {
		pi, qi := p[i], q[i]
		if pi > 0 {
			qs := qi
			if qs < epsilon {
				qs = epsilon
			}
			kl += pi * math.Log(pi/qs)
		}
		t := pi - qi
		cdf += t
		emd += math.Abs(cdf)
		at := math.Abs(t)
		l1 += at
		l2 += t * t
		if at > maxd {
			maxd = at
		}
	}
	if kl < 0 {
		kl = 0 // guard tiny negative residue from smoothing
	}
	out[DevKL] = kl
	out[DevEMD] = emd
	out[DevL1] = l1
	out[DevL2] = math.Sqrt(l2)
	out[DevMaxDiff] = maxd
	return nil
}

// NormalizeInto is the buffer-reusing form of Normalize: it scales bins
// into a probability distribution written to out (len(out) must equal
// len(bins)), replicating Normalize's semantics exactly — the total sums
// only positive values, an all-zero histogram normalises to uniform, and
// non-positive entries are written as 0 (out is fully overwritten, so a
// reused scratch buffer carries no stale values).
func NormalizeInto(out, bins []float64) error {
	if len(out) != len(bins) {
		return fmt.Errorf("metric: normalize into %d bins from %d", len(out), len(bins))
	}
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
		return nil
	}
	for i, v := range bins {
		if v > 0 {
			out[i] = v / total
		} else {
			out[i] = 0
		}
	}
	return nil
}

// PValueScoreN is PValueScore for callers that already know the target's
// total count and have validated its bins non-negative (e.g. a block
// kernel that sums each measure's counts once per layout rather than once
// per view). targetCounts and refDist must be the same non-zero length.
func PValueScoreN(targetCounts []float64, n float64, refDist []float64) (float64, error) {
	if n == 0 {
		return 0, nil // no data: nothing extreme about it
	}
	chi2 := 0.0
	df := -1 // bins − 1 degrees of freedom
	for i := range targetCounts {
		exp := refDist[i] * n
		if exp < epsilon {
			// The reference says this bin is impossible; any observed mass
			// there is maximally surprising.
			if targetCounts[i] > 0 {
				return 1, nil
			}
			continue
		}
		d := targetCounts[i] - exp
		chi2 += d * d / exp
		df++
	}
	if df < 1 {
		return 0, nil
	}
	cdf, err := chiSquareCDF(chi2, df)
	if err != nil {
		return 0, err
	}
	return cdf, nil // cdf = 1 − p
}
