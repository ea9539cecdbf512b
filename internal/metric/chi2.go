package metric

import (
	"fmt"
	"math"
)

// chiSquareCDF returns P(X ≤ x) for a χ² distribution with k degrees of
// freedom, computed as the regularised lower incomplete gamma function
// P(k/2, x/2).
func chiSquareCDF(x float64, k int) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("metric: chi-square needs k ≥ 1, got %d", k)
	}
	if x <= 0 {
		return 0, nil
	}
	return regularizedGammaP(float64(k)/2, x/2)
}

// regularizedGammaP computes P(a, x) = γ(a, x)/Γ(a) using the series
// expansion for x < a+1 and the continued fraction for the complement
// otherwise (Numerical Recipes 6.2).
func regularizedGammaP(a, x float64) (float64, error) {
	if x < 0 || a <= 0 {
		return 0, fmt.Errorf("metric: invalid incomplete gamma arguments a=%g x=%g", a, x)
	}
	if x == 0 {
		return 0, nil
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	q, err := gammaContinuedFraction(a, x)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

func gammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < 500; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, fmt.Errorf("metric: gamma series did not converge for a=%g x=%g", a, x)
}

func gammaContinuedFraction(a, x float64) (float64, error) {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, fmt.Errorf("metric: gamma continued fraction did not converge for a=%g x=%g", a, x)
}
