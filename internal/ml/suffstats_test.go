package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randDesign builds a random design with k features and n rows, plus
// noisy linear labels.
func randDesign(rng *rand.Rand, n, k int) (rows [][]float64, y []float64) {
	w := make([]float64, k)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	rows = make([][]float64, n)
	y = make([]float64, n)
	for i := range rows {
		rows[i] = make([]float64, k)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * float64(j+1)
		}
		for j := range rows[i] {
			y[i] += w[j] * rows[i][j]
		}
		y[i] += 0.3 + rng.NormFloat64()*0.1
	}
	return rows, y
}

// fitFromScratch standardises and absorbs the rows in order and solves —
// the reference an incremental session is held bit-identical to.
func fitFromScratch(t *testing.T, scaler *Scaler, rows [][]float64, y []float64) *LinearRegression {
	t.Helper()
	s := NewSuffStats(len(rows[0]))
	z := make([]float64, len(rows[0]))
	for i, r := range rows {
		scaler.TransformInto(r, z)
		if err := s.Add(z, y[i]); err != nil {
			t.Fatal(err)
		}
	}
	m := &LinearRegression{}
	if err := m.FitSufficient(s, scaler); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIncrementalRefitMatchesFromScratch is the determinism property that
// session replay depends on: a session that Adds one label at a time and
// refits after each must end with weights bit-identical to a fresh
// from-scratch accumulation over the same label sequence — across random
// designs, label orders and session lengths.
func TestIncrementalRefitMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		k := 2 + rng.Intn(8)
		n := 1 + rng.Intn(30)
		rows, y := randDesign(rng, n+4, k)
		scaler, err := FitScaler(rows)
		if err != nil {
			t.Fatal(err)
		}
		inc := &LinearRegression{}
		s := NewSuffStats(k)
		z := make([]float64, k)
		for i := 0; i < n; i++ {
			scaler.TransformInto(rows[i], z)
			if err := s.Add(z, y[i]); err != nil {
				t.Fatal(err)
			}
			if err := inc.FitSufficient(s, scaler); err != nil {
				t.Fatal(err)
			}
			fresh := fitFromScratch(t, scaler, rows[:i+1], y[:i+1])
			if math.Float64bits(inc.bias) != math.Float64bits(fresh.bias) {
				t.Fatalf("trial %d label %d: bias %v vs %v", trial, i, inc.bias, fresh.bias)
			}
			for j := range inc.weights {
				if math.Float64bits(inc.weights[j]) != math.Float64bits(fresh.weights[j]) {
					t.Fatalf("trial %d label %d: weight %d: %v vs %v",
						trial, i, j, inc.weights[j], fresh.weights[j])
				}
			}
		}
	}
}

// TestFitSufficientAgreesWithFit holds the sufficient-statistics solver to
// the retained design-matrix Fit: same data, same scaler, weights and
// predictions equal to solver tolerance (the algebra is rearranged, so
// bitwise equality is not expected — numerical agreement is).
func TestFitSufficientAgreesWithFit(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		k := 2 + rng.Intn(6)
		n := 1 + rng.Intn(40)
		rows, y := randDesign(rng, n, k)
		scaler, err := FitScaler(rows)
		if err != nil {
			t.Fatal(err)
		}
		ref := &LinearRegression{}
		if err := ref.Fit(rows, y, scaler, ridgeLambda); err != nil {
			t.Fatal(err)
		}
		inc := fitFromScratch(t, scaler, rows, y)
		probe := make([]float64, k)
		for j := range probe {
			probe[j] = rng.NormFloat64() * 3
		}
		pr, pi := ref.Predict(probe), inc.Predict(probe)
		scale := 1 + math.Abs(pr)
		if math.Abs(pr-pi) > 1e-6*scale {
			t.Fatalf("trial %d (n=%d k=%d): predictions diverge: %v vs %v", trial, n, k, pr, pi)
		}
		wr, br := ref.Weights()
		wi, bi := inc.Weights()
		for j := range wr {
			if math.Abs(wr[j]-wi[j]) > 1e-6*(1+math.Abs(wr[j])) {
				t.Fatalf("trial %d: weight %d: %v vs %v", trial, j, wr[j], wi[j])
			}
		}
		if math.Abs(br-bi) > 1e-6*(1+math.Abs(br)) {
			t.Fatalf("trial %d: intercept %v vs %v", trial, br, bi)
		}
	}
}

// TestFitSufficientQuickLabelSequences drives random label sequences
// through testing/quick: any sequence of labels over a fixed design gives
// an incremental fit bit-identical to the from-scratch one.
func TestFitSufficientQuickLabelSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const k = 5
	rows, _ := randDesign(rng, 64, k)
	scaler, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	f := func(picks []uint8, labels []bool) bool {
		if len(picks) == 0 {
			return true
		}
		if len(labels) < len(picks) {
			return true
		}
		inc := &LinearRegression{}
		s := NewSuffStats(k)
		z := make([]float64, k)
		var seqRows [][]float64
		var seqY []float64
		for i, p := range picks {
			r := rows[int(p)%len(rows)]
			yv := 0.0
			if labels[i] {
				yv = 1
			}
			seqRows = append(seqRows, r)
			seqY = append(seqY, yv)
			scaler.TransformInto(r, z)
			if s.Add(z, yv) != nil {
				return false
			}
			if inc.FitSufficient(s, scaler) != nil {
				return false
			}
		}
		fresh := fitFromScratch(t, scaler, seqRows, seqY)
		if math.Float64bits(inc.bias) != math.Float64bits(fresh.bias) {
			return false
		}
		for j := range inc.weights {
			if math.Float64bits(inc.weights[j]) != math.Float64bits(fresh.weights[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFitSufficientErrors(t *testing.T) {
	m := &LinearRegression{}
	scaler := mustScaler(t, [][]float64{{1, 2, 3}, {2, 3, 4}})
	if err := m.FitSufficient(nil, scaler); err == nil {
		t.Error("nil statistics should fail")
	}
	if err := m.FitSufficient(NewSuffStats(3), scaler); err == nil {
		t.Error("empty statistics should fail")
	}
	s := NewSuffStats(3)
	if err := s.Add([]float64{1, 2}, 1); err == nil {
		t.Error("short row should fail")
	}
	if err := s.Add([]float64{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.FitSufficient(s, nil); err == nil {
		t.Error("FitSufficient without a scaler should fail")
	}
}

// TestRefitAllocations pins the steady-state allocation count of the
// incremental refit loop (in the style of TestBinIndexAllocations): after
// warm-up, absorbing a label and re-solving must reuse every workspace —
// the rank-1 update, the normal equations, the Cholesky factor, the
// triangular solves and the weight vector.
func TestRefitAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const k = 8
	rows, y := randDesign(rng, 200, k)
	scaler, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	m := &LinearRegression{}
	s := NewSuffStats(k)
	z := make([]float64, k)
	next := 0
	add := func() {
		scaler.TransformInto(rows[next], z)
		if err := s.Add(z, y[next]); err != nil {
			t.Fatal(err)
		}
		next++
		if err := m.FitSufficient(s, scaler); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: allocate the workspaces once.
	for i := 0; i < 3; i++ {
		add()
	}
	allocs := testing.AllocsPerRun(10, add)
	if allocs > 1 {
		t.Errorf("incremental refit allocates %.1f times per label, want ≤ 1", allocs)
	}
	// Prediction after an incremental fit is allocation-free.
	probe := rows[0]
	allocs = testing.AllocsPerRun(10, func() { _ = m.Predict(probe) })
	if allocs != 0 {
		t.Errorf("Predict allocates %.1f times, want 0", allocs)
	}
}

// TestPredictMatchesTransformDot pins the inline standardising Predict
// and Prob to the allocating Transform+Dot forms they replaced.
func TestPredictMatchesTransformDot(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rows, y := randDesign(rng, 40, 6)
	scaler, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	lin := &LinearRegression{}
	if err := lin.Fit(rows, y, scaler, ridgeLambda); err != nil {
		t.Fatal(err)
	}
	cls := &LogisticRegression{}
	by := make([]float64, len(y))
	for i := range y {
		if y[i] > 0 {
			by[i] = 1
		}
	}
	if err := cls.Fit(rows, by, scaler, nil); err != nil {
		t.Fatal(err)
	}
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	for _, r := range rows {
		z := scaler.Transform(r)
		if got, want := lin.Predict(r), lin.bias+dot(lin.weights, z); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Predict %v != Transform+Dot %v", got, want)
		}
		if got, want := cls.Prob(r), sigmoid(cls.bias+dot(cls.weights, z)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Prob %v != Transform+Dot %v", got, want)
		}
	}
}

// TestTransformIntoMatchesTransform pins the buffer-reusing transforms to
// the allocating ones, including buffer regrowth and row-slice reuse.
func TestTransformIntoMatchesTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	rows, _ := randDesign(rng, 25, 4)
	scaler, err := FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	var buf [][]float64
	for pass := 0; pass < 3; pass++ {
		n := 5 + pass*10 // grows past the previous capacity
		buf = scaler.TransformAllInto(rows[:n], buf)
		want := scaler.TransformAll(rows[:n])
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(buf[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("pass %d row %d col %d: %v vs %v", pass, i, j, buf[i][j], want[i][j])
				}
			}
		}
	}
	// Steady state: same shape in, zero allocations.
	allocs := testing.AllocsPerRun(10, func() {
		buf = scaler.TransformAllInto(rows[:25], buf)
	})
	if allocs != 0 {
		t.Errorf("steady-state TransformAllInto allocates %.1f times, want 0", allocs)
	}
}

// TestLogisticWarmStart pins the warm-start mechanism: it is
// deterministic (two identically driven chains agree bit for bit), it
// converges in fewer epochs than a cold fit on a nearby problem, and a
// fit without a warm model ignores the model's own history.
func TestLogisticWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rows, _ := randDesign(rng, 120, 5)
	// Noisy labels keep the problem non-separable, so fits converge by
	// tolerance within the epoch cap instead of saturating it.
	y := make([]float64, len(rows))
	for i, r := range rows {
		if r[0]+r[1]+3*rng.NormFloat64() > 0 {
			y[i] = 1
		}
	}
	scaler := mustScaler(t, rows)
	chain := func() *LogisticRegression {
		m := &LogisticRegression{}
		for n := 40; n <= len(rows); n += 40 {
			if err := m.Fit(rows[:n], y[:n], scaler, m); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	a, b := chain(), chain()
	if math.Float64bits(a.bias) != math.Float64bits(b.bias) {
		t.Fatalf("warm-start chains diverge: bias %v vs %v", a.bias, b.bias)
	}
	for j := range a.weights {
		if math.Float64bits(a.weights[j]) != math.Float64bits(b.weights[j]) {
			t.Fatalf("warm-start chains diverge at weight %d", j)
		}
	}

	cold := &LogisticRegression{}
	if err := cold.Fit(rows, y, scaler, nil); err != nil {
		t.Fatal(err)
	}
	prev := &LogisticRegression{}
	if err := prev.Fit(rows[:len(rows)-1], y[:len(rows)-1], scaler, nil); err != nil {
		t.Fatal(err)
	}
	warm := &LogisticRegression{}
	if err := warm.Fit(rows, y, scaler, prev); err != nil {
		t.Fatal(err)
	}
	if cold.epochsRun >= maxEpochs {
		t.Fatalf("cold fit saturated the %d-epoch cap; comparison is meaningless", cold.epochsRun)
	}
	if warm.epochsRun >= cold.epochsRun {
		t.Errorf("warm fit took %d epochs, cold took %d — warm start saved nothing",
			warm.epochsRun, cold.epochsRun)
	}

	// Without a warm model the previous state is ignored: a reused model
	// fits exactly like a fresh one.
	reused := &LogisticRegression{}
	if err := reused.Fit(rows[:60], y[:60], scaler, nil); err != nil {
		t.Fatal(err)
	}
	if err := reused.Fit(rows, y, scaler, nil); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(reused.bias) != math.Float64bits(cold.bias) {
		t.Fatalf("cold refit depends on history: bias %v vs %v", reused.bias, cold.bias)
	}
	for j := range reused.weights {
		if math.Float64bits(reused.weights[j]) != math.Float64bits(cold.weights[j]) {
			t.Fatalf("cold refit depends on history at weight %d", j)
		}
	}
}

// Transform returns the standardised copy of one row.
func (s *Scaler) Transform(row []float64) []float64 {
	out := make([]float64, len(row))
	s.TransformInto(row, out)
	return out
}
