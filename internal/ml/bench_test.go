package ml

import (
	"math/rand"
	"testing"
)

func benchData(n, k int) ([][]float64, []float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, n)
	yReg := make([]float64, n)
	yCls := make([]float64, n)
	for i := range rows {
		r := make([]float64, k)
		s := 0.0
		for j := range r {
			r[j] = rng.NormFloat64()
			s += r[j] * float64(j+1) * 0.1
		}
		rows[i] = r
		yReg[i] = s
		if s > 0 {
			yCls[i] = 1
		}
	}
	return rows, yReg, yCls
}

// BenchmarkLinearRegressionFitSufficient times one refit from
// sufficient statistics over 100 absorbed labels, the per-label cost of a
// session's utility estimator.
func BenchmarkLinearRegressionFitSufficient(b *testing.B) {
	rows, y, _ := benchData(100, 8)
	scaler := mustScaler(b, rows)
	s := NewSuffStats(8)
	z := make([]float64, 8)
	for i, r := range rows {
		scaler.TransformInto(r, z)
		if err := s.Add(z, y[i]); err != nil {
			b.Fatal(err)
		}
	}
	var m LinearRegression
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.FitSufficient(s, scaler); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinearRegressionPredictAll(b *testing.B) {
	rows, y, _ := benchData(280, 8)
	var m LinearRegression
	if err := m.Fit(rows[:50], y[:50], nil, 1e-6); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictAll(rows)
	}
}

func BenchmarkLogisticRegressionFit(b *testing.B) {
	rows, _, y := benchData(100, 8)
	scaler := mustScaler(b, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m LogisticRegression
		if err := m.Fit(rows, y, scaler, nil); err != nil {
			b.Fatal(err)
		}
	}
}
