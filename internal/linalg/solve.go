package linalg

import (
	"errors"
	"fmt"
	"math"
)

// errSingular reports a numerically singular system.
var errSingular = errors.New("linalg: matrix is singular")

// Solve solves A·x = b by Gaussian elimination with partial pivoting. A is
// destroyed; pass a copy to preserve it. b is not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Solve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot: largest |a[r][col]| for r >= col.
		pivot := col
		maxAbs := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-14 {
			return nil, errSingular
		}
		if pivot != col {
			for j := col; j < n; j++ {
				ap, ac := a.At(pivot, j), a.At(col, j)
				a.Set(pivot, j, ac)
				a.Set(col, j, ap)
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a.Add(r, j, -f*a.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		x[i] = s / a.At(i, i)
	}
	return x, nil
}

// CholeskyInto decomposes a symmetric positive-definite matrix A into
// L·Lᵀ, writing the lower-triangular L into l (which must be square with
// A's dimensions). It zeroes l first, so a reused workspace carries no
// stale entries and repeated solves can recycle the factor buffer without
// changing a single bit of the result. It errors when A is not SPD within
// numerical tolerance.
func CholeskyInto(a, l *Matrix) error {
	n := a.Rows
	if a.Cols != n {
		return fmt.Errorf("linalg: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if l.Rows != n || l.Cols != n {
		return fmt.Errorf("linalg: Cholesky factor is %dx%d, want %dx%d", l.Rows, l.Cols, n, n)
	}
	for i := range l.Data {
		l.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return fmt.Errorf("linalg: matrix not positive definite at pivot %d (%g)", i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return nil
}

// SolveFactored finishes a Cholesky solve from an existing factor: given
// lower-triangular L with L·Lᵀ = A, it solves A·x = b by the forward
// solve L·y = b into the scratch y, then the back solve Lᵀ·x = y into x.
// y and x must have the factor's dimension; b is preserved.
func SolveFactored(l *Matrix, b, y, x []float64) error {
	n := l.Rows
	if len(b) != n || len(y) != n || len(x) != n {
		return fmt.Errorf("linalg: solve buffers have lengths %d/%d/%d, want %d", len(b), len(y), len(x), n)
	}
	// Forward solve L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back solve Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return nil
}
