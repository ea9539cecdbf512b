package ml

import (
	"fmt"

	"viewseeker/internal/linalg"
)

// LinearRegression is the view utility estimator: ŷ = w·x + b fitted by
// ridge-regularised least squares over standardised features. Ridge keeps
// the normal equations well-posed in the early iterations, when there are
// fewer labels than features — exactly the regime ViewSeeker's cold start
// operates in. The zero value is an unfitted model.
//
// Features are standardised with a scaler the caller fitted elsewhere — in
// ViewSeeker, over the whole view space rather than just the labelled
// rows. In a transductive setting this matters: a feature that is
// near-constant among the labelled views but wide-ranged globally would
// otherwise turn into a huge-leverage direction, and predictions on
// unlabelled views would extrapolate wildly off a handful of noisy labels.
type LinearRegression struct {
	weights []float64 // on standardised features
	bias    float64
	scaler  *Scaler

	// Solver workspaces reused across FitSufficient calls: the normal
	// equations, the Cholesky factor and the triangular-solve scratch are
	// all O(k²)/O(k) buffers whose reallocation per label would dominate a
	// session's refit allocations (see TestRefitAllocations).
	gram, chol          *linalg.Matrix
	rhs, fwd, sol, zbar []float64
}

// ridgeLambda is the utility estimator's ridge penalty: small enough for
// near-exact recovery of linear utility targets, large enough that
// near-degenerate feature directions cannot soak up label noise.
const ridgeLambda = 1e-4

// FitSufficient solves the ridge-regularised (ridgeLambda), centred
// normal equations from accumulated sufficient statistics:
// G = Sxx − n·z̄·z̄ᵀ + λI and rhs = Sxy − Sy·z̄ over the standardised
// feature space the statistics were collected in. scaler must be the one
// that produced their z rows (the statistics are meaningless without it),
// and at least one label must have been absorbed. All solver buffers are
// reused across calls, so a per-label refit costs O(k²) arithmetic and no
// steady-state allocations. The same statistics always produce
// bit-identical weights; a design-matrix solve, kept as the test oracle,
// agrees to solver tolerance (the algebra is rearranged).
func (m *LinearRegression) FitSufficient(s *SuffStats, scaler *Scaler) error {
	if s == nil || s.N == 0 {
		return fmt.Errorf("ml: linear regression needs at least one labelled row")
	}
	if scaler == nil {
		return fmt.Errorf("ml: FitSufficient needs the scaler its statistics were accumulated under")
	}
	k := s.K
	if m.gram == nil || m.gram.Rows != k {
		m.gram = linalg.NewMatrix(k, k)
		m.chol = linalg.NewMatrix(k, k)
		m.rhs = make([]float64, k)
		m.fwd = make([]float64, k)
		m.sol = make([]float64, k)
		m.zbar = make([]float64, k)
	}
	n := float64(s.N)
	yMean := s.Sy / n
	for j := 0; j < k; j++ {
		m.zbar[j] = s.Sx[j] / n
	}
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			g := s.Sxx.At(i, j) - n*m.zbar[i]*m.zbar[j]
			if i == j {
				g += ridgeLambda
			}
			m.gram.Set(i, j, g)
			m.gram.Set(j, i, g)
		}
		m.rhs[i] = s.Sxy[i] - s.Sy*m.zbar[i]
	}
	if err := linalg.CholeskyInto(m.gram, m.chol); err != nil {
		// Numerically rank-deficient despite the ridge: retry with a tiny
		// jitter and pivoted elimination, so early-session refits always
		// produce some estimator.
		for i := 0; i < k; i++ {
			m.gram.Add(i, i, 1e-9)
		}
		w, err := linalg.Solve(m.gram, m.rhs)
		if err != nil {
			return fmt.Errorf("ml: fitting linear regression: %w", err)
		}
		copy(m.sol, w)
	} else if err := linalg.SolveFactored(m.chol, m.rhs, m.fwd, m.sol); err != nil {
		return fmt.Errorf("ml: fitting linear regression: %w", err)
	}
	if len(m.weights) != k {
		m.weights = make([]float64, k)
	}
	copy(m.weights, m.sol)
	m.bias = yMean - linalg.Dot(m.weights, m.zbar)
	m.scaler = scaler
	return nil
}

// Predict returns ŷ for one feature row. Calling Predict before a fit
// returns 0. It standardises inline — no per-call allocation — with the
// same accumulation order as Dot over a Transformed copy, so predictions
// are bit-identical to the allocating form.
func (m *LinearRegression) Predict(row []float64) float64 {
	if m.scaler == nil {
		return 0
	}
	mean, std := m.scaler.Mean, m.scaler.Std
	s := 0.0
	for j, w := range m.weights {
		s += w * ((row[j] - mean[j]) / std[j])
	}
	return m.bias + s
}

// PredictAll returns predictions for every row.
func (m *LinearRegression) PredictAll(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = m.Predict(r)
	}
	return out
}

// Weights returns the learned weights mapped back to the original
// (unstandardised) feature space, plus the matching intercept. This is the
// recovered utility-function composition β of Eq. 4 that ViewSeeker reports.
func (m *LinearRegression) Weights() (w []float64, intercept float64) {
	if m.scaler == nil {
		return nil, 0
	}
	w = make([]float64, len(m.weights))
	intercept = m.bias
	for j := range m.weights {
		w[j] = m.weights[j] / m.scaler.Std[j]
		intercept -= w[j] * m.scaler.Mean[j]
	}
	return w, intercept
}
