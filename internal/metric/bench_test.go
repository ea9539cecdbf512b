package metric

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchDists(bins int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	mk := func() []float64 {
		v := make([]float64, bins)
		for i := range v {
			v[i] = rng.Float64()
		}
		return Normalize(v)
	}
	return mk(), mk()
}

// scalarDeviations is the per-call path the fused kernel replaces; the
// function slice is built once (not inside any timed loop) so the
// benchmark measures the metric math, not slice construction.
var scalarDeviations = []func(p, q []float64) (float64, error){
	KLDivergence, EMD, L1, L2, MaxDiff,
}

// BenchmarkAllDeviations times the five scalar deviation calls on one
// pair at realistic bin counts (views run 3–256 bins, not just 10).
func BenchmarkAllDeviations(b *testing.B) {
	for _, bins := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			p, q := benchDists(bins)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range scalarDeviations {
					if _, err := f(p, q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDeviationsAll times the fused kernel on the same pairs; the
// ratio against BenchmarkAllDeviations is the single-pair speedup (the
// layout-block speedup is benchmarked in internal/feature).
func BenchmarkDeviationsAll(b *testing.B) {
	for _, bins := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			p, q := benchDists(bins)
			out := make([]float64, NumDeviations)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DeviationsAll(p, q, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPValueScore(b *testing.B) {
	_, q := benchDists(10)
	counts := make([]float64, 10)
	for i := range counts {
		counts[i] = float64(10 + i*7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PValueScore(counts, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChiSquareCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := chiSquareCDF(12.5, 9); err != nil {
			b.Fatal(err)
		}
	}
}
