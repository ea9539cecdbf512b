package linalg

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AXPY computes y ← y + alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}
