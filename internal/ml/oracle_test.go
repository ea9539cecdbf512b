package ml

import (
	"fmt"

	"viewseeker/internal/linalg"
)

// Fit is the design-matrix oracle for FitSufficient: it solves the
// regularised normal equations (Xᵀ X + λI)·w = Xᵀ y on standardised,
// centred rows directly. A nil scaler standardises by the labelled rows'
// own statistics. It requires at least one row.
func (m *LinearRegression) Fit(rows [][]float64, y []float64, scaler *Scaler, lambda float64) error {
	if len(rows) == 0 {
		return fmt.Errorf("ml: linear regression needs at least one labelled row")
	}
	if len(rows) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(rows), len(y))
	}
	if scaler == nil {
		var err error
		scaler, err = FitScaler(rows)
		if err != nil {
			return err
		}
	}
	std := scaler.TransformAll(rows)
	k := len(std[0])
	// Centre both the labels and the (standardised) design by the
	// labelled set's own means, so the intercept decouples regardless of
	// where the scaler's statistics came from (a labelled-rows fit has
	// zero column means anyway; a whole-space scaler does not).
	yMean := 0.0
	for _, v := range y {
		yMean += v
	}
	yMean /= float64(len(y))
	colMeans := make([]float64, k)
	for _, r := range std {
		for j, v := range r {
			colMeans[j] += v
		}
	}
	for j := range colMeans {
		colMeans[j] /= float64(len(std))
	}

	// The Gram matrix XᵀX of the centred design, upper triangle
	// accumulated row by row and mirrored.
	gram := linalg.NewMatrix(k, k)
	x := make([]float64, k)
	for _, r := range std {
		for j, v := range r {
			x[j] = v - colMeans[j]
		}
		for i := 0; i < k; i++ {
			if x[i] == 0 {
				continue
			}
			for j := i; j < k; j++ {
				gram.Add(i, j, x[i]*x[j])
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			gram.Set(i, j, gram.At(j, i))
		}
		gram.Add(i, i, lambda)
	}
	rhs := make([]float64, k)
	for i, r := range std {
		resid := y[i] - yMean
		for j, v := range r {
			rhs[j] += (v - colMeans[j]) * resid
		}
	}
	w, err := choleskySolve(gram, rhs)
	if err != nil {
		// Rank-deficient and unregularised: fall back to pivoted Gaussian
		// elimination with a tiny jitter.
		for i := 0; i < k; i++ {
			gram.Add(i, i, 1e-9)
		}
		w, err = linalg.Solve(gram, rhs)
		if err != nil {
			return fmt.Errorf("ml: fitting linear regression: %w", err)
		}
	}
	m.weights = w
	m.bias = yMean - linalg.Dot(w, colMeans)
	m.scaler = scaler
	return nil
}

// choleskySolve solves gram·w = rhs for SPD gram by a Cholesky factor
// and two triangular solves; gram is preserved.
func choleskySolve(gram *linalg.Matrix, rhs []float64) ([]float64, error) {
	k := gram.Rows
	l := linalg.NewMatrix(k, k)
	if err := linalg.CholeskyInto(gram, l); err != nil {
		return nil, err
	}
	w := make([]float64, k)
	return w, linalg.SolveFactored(l, rhs, make([]float64, k), w)
}
