package ml

import (
	"fmt"
	"math"

	"viewseeker/internal/linalg"
)

// LogisticRegression is the uncertainty estimator: a binary classifier
// whose predicted probability p(y=1|x) feeds the least-confidence query
// strategy (Eq. 6). It is trained by full-batch gradient descent with L2
// regularisation on standardised features. The zero value is an unfitted
// model.
type LogisticRegression struct {
	weights []float64
	bias    float64
	scaler  *Scaler

	// epochsRun records the last Fit's epoch count.
	epochsRun int
}

// The fixed gradient-descent schedule: step size, epoch cap, L2 penalty,
// and the early-stop tolerance on the largest weight update.
const (
	learningRate = 0.5
	maxEpochs    = 500
	logitLambda  = 1e-3
	stepTol      = 1e-8
)

func sigmoid(z float64) float64 {
	// Numerically stable split.
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains on rows with binary labels (0 or 1), standardised by scaler.
// Transductive callers pass a scaler fitted over the whole view space, not
// just the labelled rows (see LinearRegression). At least one row is
// required; a single-class dataset is legal and yields a confident
// constant classifier, which the cold-start stage relies on.
//
// Gradient descent starts from zero, or, when warm is a fitted model over
// the same standardised features, from warm's weights. With a near-convex
// objective and heavily overlapping training sets the previous optimum is
// a few steps from the next, so a warm fit converges in far fewer epochs.
// Either way the result is a function of the arguments alone.
func (m *LogisticRegression) Fit(rows [][]float64, y []float64, scaler *Scaler, warm *LogisticRegression) error {
	if len(rows) == 0 {
		return fmt.Errorf("ml: logistic regression needs at least one labelled row")
	}
	if len(rows) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(rows), len(y))
	}
	if scaler == nil {
		return fmt.Errorf("ml: logistic regression needs a scaler")
	}
	for i, v := range y {
		if v != 0 && v != 1 {
			return fmt.Errorf("ml: label %d is %v, want 0 or 1", i, v)
		}
	}
	std := scaler.TransformAll(rows)
	k := len(std[0])
	w := make([]float64, k)
	b := 0.0
	if warm != nil && len(warm.weights) == k {
		copy(w, warm.weights)
		b = warm.bias
	}
	n := float64(len(std))
	grad := make([]float64, k)
	epochsRun := 0
	for epoch := 0; epoch < maxEpochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i, r := range std {
			p := sigmoid(b + linalg.Dot(w, r))
			d := p - y[i]
			gb += d
			linalg.AXPY(d, r, grad)
		}
		maxStep := 0.0
		for j := range w {
			g := grad[j]/n + logitLambda*w[j]
			step := learningRate * g
			w[j] -= step
			if s := math.Abs(step); s > maxStep {
				maxStep = s
			}
		}
		b -= learningRate * gb / n
		epochsRun++
		if maxStep < stepTol && math.Abs(learningRate*gb/n) < stepTol {
			break
		}
	}
	m.weights = w
	m.bias = b
	m.scaler = scaler
	m.epochsRun = epochsRun
	return nil
}

// Prob returns p(y=1|x). Before Fit it returns 0.5 — maximal uncertainty,
// which makes an untrained uncertainty estimator equivalent to random
// selection. Like LinearRegression.Predict it standardises inline with
// Dot's accumulation order, so it allocates nothing and matches the
// allocating form bit for bit.
func (m *LogisticRegression) Prob(row []float64) float64 {
	if m.scaler == nil {
		return 0.5
	}
	mean, std := m.scaler.Mean, m.scaler.Std
	s := 0.0
	for j, w := range m.weights {
		s += w * ((row[j] - mean[j]) / std[j])
	}
	return sigmoid(m.bias + s)
}

// Uncertainty returns the least-confidence score of Eq. 6:
// 1 − p(ŷ|x) where ŷ is the predicted class. It is maximised (0.5) when
// p(y=1|x) = 0.5.
func (m *LogisticRegression) Uncertainty(row []float64) float64 {
	p := m.Prob(row)
	if p < 0.5 {
		return p
	}
	return 1 - p
}
