package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// clone returns a deep copy of m.
func clone(m *Matrix) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// mulVec returns m × v.
func mulVec(m *Matrix, v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		out[i] = Dot(m.Data[i*m.Cols:(i+1)*m.Cols], v)
	}
	return out
}

// maxAbsDiff returns the largest element-wise |a - b|.
func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// cholesky returns the factor CholeskyInto writes.
func cholesky(a *Matrix) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Rows)
	return l, CholeskyInto(a, l)
}

func TestSolveKnownSystem(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(clone(a), []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := Solve(clone(a), []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(clone(a), []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // diagonal dominance => well-conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := mulVec(a, want)
		got, err := Solve(clone(a), b)
		if err != nil {
			return false
		}
		return maxAbsDiff(got, want) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyAndSolve(t *testing.T) {
	// SPD matrix built as GᵀG + I.
	rng := rand.New(rand.NewSource(4))
	g := NewMatrix(8, 4)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for r := 0; r < g.Rows; r++ {
				a.Add(i, j, g.At(r, i)*g.At(r, j))
			}
		}
		a.Add(i, i, 1)
	}
	l, err := cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if !almostEqual(s, a.At(i, j), 1e-9) {
				t.Fatalf("L·Lᵀ mismatch at (%d, %d)", i, j)
			}
		}
	}
	want := []float64{1, -2, 3, 0.5}
	got := make([]float64, 4)
	if err := SolveFactored(l, mulVec(a, want), make([]float64, 4), got); err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(got, want) > 1e-8 {
		t.Errorf("SolveFactored = %v, want %v", got, want)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := cholesky(a); err == nil {
		t.Fatal("expected non-SPD error")
	}
}

func TestVectorOps(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("AXPY = %v", y)
	}
}
