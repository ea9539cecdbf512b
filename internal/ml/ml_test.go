package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScalerStandardises(t *testing.T) {
	rows := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean[0] != 3 || s.Mean[1] != 10 {
		t.Errorf("means = %v", s.Mean)
	}
	std := s.TransformAll(rows)
	// Column 0: mean 0, unit variance. Column 1 is constant: centred only.
	var sum, sq float64
	for _, r := range std {
		sum += r[0]
		sq += r[0] * r[0]
		if r[1] != 0 {
			t.Errorf("constant column should centre to 0, got %v", r[1])
		}
	}
	if math.Abs(sum) > 1e-12 || math.Abs(sq/3-1) > 1e-12 {
		t.Errorf("column 0 not standardised: sum=%v meanSq=%v", sum, sq/3)
	}
}

// mustScaler fits a scaler over rows or fails the test.
func mustScaler(t testing.TB, rows [][]float64) *Scaler {
	t.Helper()
	s, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScalerErrors(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Error("expected error on empty data")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected error on ragged data")
	}
}

func TestLinearRegressionRecoversExactTarget(t *testing.T) {
	// y = 0.3·x0 + 0.7·x2 + 0.1, the shape of the paper's ideal utility
	// functions (Eq. 4). With >k well-spread samples the fit is exact.
	rng := rand.New(rand.NewSource(1))
	var rows [][]float64
	var y []float64
	for i := 0; i < 40; i++ {
		r := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		rows = append(rows, r)
		y = append(y, 0.3*r[0]+0.7*r[2]+0.1)
	}
	var m LinearRegression
	if err := m.Fit(rows, y, nil, 1e-9); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if math.Abs(m.Predict(r)-y[i]) > 1e-6 {
			t.Fatalf("prediction %d off: %v vs %v", i, m.Predict(r), y[i])
		}
	}
	w, b := m.Weights()
	if math.Abs(w[0]-0.3) > 1e-6 || math.Abs(w[1]) > 1e-6 || math.Abs(w[2]-0.7) > 1e-6 {
		t.Errorf("recovered weights = %v, want [0.3 0 0.7]", w)
	}
	if math.Abs(b-0.1) > 1e-6 {
		t.Errorf("intercept = %v, want 0.1", b)
	}
}

func TestLinearRegressionUnderdetermined(t *testing.T) {
	// Fewer labels than features: ridge must still produce a usable fit.
	rows := [][]float64{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}}
	y := []float64{1, 0}
	var m LinearRegression
	if err := m.Fit(rows, y, nil, 1e-6); err != nil {
		t.Fatal(err)
	}
	if m.scaler == nil {
		t.Fatal("should be fitted")
	}
	if m.Predict(rows[0]) <= m.Predict(rows[1]) {
		t.Error("fit should at least order the two training points")
	}
}

func TestLinearRegressionSingleRow(t *testing.T) {
	var m LinearRegression
	if err := m.Fit([][]float64{{1, 2}}, []float64{0.7}, nil, 1e-6); err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{1, 2}); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("single-row fit predicts %v, want 0.7 (the mean)", got)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	var m LinearRegression
	if err := m.Fit(nil, nil, nil, 0); err == nil {
		t.Error("expected error on empty fit")
	}
	if err := m.Fit([][]float64{{1}}, []float64{1, 2}, nil, 0); err == nil {
		t.Error("expected error on length mismatch")
	}
	if got := m.Predict([]float64{1}); got != 0 {
		t.Errorf("unfitted Predict = %v, want 0", got)
	}
	if w, _ := m.Weights(); w != nil {
		t.Error("unfitted Weights should be nil")
	}
}

func TestLinearRegressionPropertyExactRecovery(t *testing.T) {
	// For any random 4-feature linear target, 30 samples recover it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		b := rng.NormFloat64()
		var rows [][]float64
		var y []float64
		for i := 0; i < 30; i++ {
			r := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			rows = append(rows, r)
			s := b
			for j := range w {
				s += w[j] * r[j]
			}
			y = append(y, s)
		}
		var m LinearRegression
		if err := m.Fit(rows, y, nil, 1e-10); err != nil {
			return false
		}
		got, gotB := m.Weights()
		for j := range w {
			if math.Abs(got[j]-w[j]) > 1e-5 {
				return false
			}
		}
		return math.Abs(gotB-b) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLogisticRegressionSeparable(t *testing.T) {
	// Linearly separable along x0.
	var rows [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		x0 := rng.NormFloat64()
		rows = append(rows, []float64{x0, rng.NormFloat64()})
		if x0 > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	var m LogisticRegression
	if err := m.Fit(rows, y, mustScaler(t, rows), nil); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, r := range rows {
		p := m.Prob(r)
		if (p > 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if correct < 95 {
		t.Errorf("accuracy = %d/100 on separable data", correct)
	}
}

func TestLogisticUncertaintyPeaksAtBoundary(t *testing.T) {
	rows := [][]float64{{-2}, {-1}, {1}, {2}}
	y := []float64{0, 0, 1, 1}
	var m LogisticRegression
	if err := m.Fit(rows, y, mustScaler(t, rows), nil); err != nil {
		t.Fatal(err)
	}
	uMid := m.Uncertainty([]float64{0})
	uFar := m.Uncertainty([]float64{3})
	if uMid <= uFar {
		t.Errorf("uncertainty at boundary (%v) should exceed far point (%v)", uMid, uFar)
	}
	if uMid > 0.5 {
		t.Errorf("uncertainty must be ≤ 0.5, got %v", uMid)
	}
}

func TestLogisticSingleClass(t *testing.T) {
	rows := [][]float64{{1}, {2}}
	var m LogisticRegression
	if err := m.Fit(rows, []float64{1, 1}, mustScaler(t, rows), nil); err != nil {
		t.Fatal(err)
	}
	if p := m.Prob([]float64{1.5}); p <= 0.5 {
		t.Errorf("single positive class should predict p>0.5, got %v", p)
	}
}

func TestLogisticRejectsNonBinaryLabels(t *testing.T) {
	rows := [][]float64{{1}}
	var m LogisticRegression
	if err := m.Fit(rows, []float64{0.3}, mustScaler(t, rows), nil); err == nil {
		t.Fatal("expected error for non-binary label")
	}
	if err := m.Fit(rows, []float64{1}, nil, nil); err == nil {
		t.Fatal("expected error without a scaler")
	}
}

func TestLogisticUnfittedIsMaximallyUncertain(t *testing.T) {
	var m LogisticRegression
	if p := m.Prob([]float64{1}); p != 0.5 {
		t.Errorf("unfitted Prob = %v, want 0.5", p)
	}
	if u := m.Uncertainty([]float64{1}); u != 0.5 {
		t.Errorf("unfitted Uncertainty = %v, want 0.5", u)
	}
}

func TestSigmoidStability(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Errorf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); s != 0.5 {
		t.Errorf("sigmoid(0) = %v", s)
	}
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		s := sigmoid(z)
		return s >= 0 && s <= 1 && math.Abs(sigmoid(-z)-(1-s)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
