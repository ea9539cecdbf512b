package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func dist(vals ...float64) []float64 { return Normalize(vals) }

func TestNormalize(t *testing.T) {
	p := Normalize([]float64{1, 3})
	if p[0] != 0.25 || p[1] != 0.75 {
		t.Errorf("Normalize = %v", p)
	}
	// All-zero input becomes uniform.
	u := Normalize([]float64{0, 0, 0, 0})
	for _, v := range u {
		if v != 0.25 {
			t.Errorf("zero histogram should normalise uniform, got %v", u)
		}
	}
	// Negative bins are treated as empty.
	n := Normalize([]float64{-5, 1})
	if n[0] != 0 || n[1] != 1 {
		t.Errorf("negative bins = %v", n)
	}
}

func TestDistancesIdentity(t *testing.T) {
	p := dist(1, 2, 3, 4)
	for name, f := range map[string]func(a, b []float64) (float64, error){
		"KL": KLDivergence, "EMD": EMD, "L1": L1, "L2": L2, "MaxDiff": MaxDiff,
	} {
		d, err := f(p, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d > 1e-12 {
			t.Errorf("%s(p, p) = %v, want 0", name, d)
		}
	}
}

func TestDistancesErrors(t *testing.T) {
	for name, f := range map[string]func(a, b []float64) (float64, error){
		"KL": KLDivergence, "EMD": EMD, "L1": L1, "L2": L2, "MaxDiff": MaxDiff,
	} {
		if _, err := f([]float64{1}, []float64{0.5, 0.5}); err == nil {
			t.Errorf("%s: expected length-mismatch error", name)
		}
		if _, err := f(nil, nil); err == nil {
			t.Errorf("%s: expected empty error", name)
		}
	}
}

func TestKLDivergenceKnown(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.25, 0.75}
	want := 0.5*math.Log(2) + 0.5*math.Log(0.5/0.75)
	got, err := KLDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("KL = %v, want %v", got, want)
	}
}

func TestKLDivergenceZeroBins(t *testing.T) {
	// q has a zero bin where p has mass: finite (smoothed), large.
	got, err := KLDivergence([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 0) || math.IsNaN(got) || got < 1 {
		t.Errorf("smoothed KL = %v, want large finite", got)
	}
	// p has a zero bin where q has mass: that term contributes 0.
	got, err = KLDivergence([]float64{0, 1}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Log(2)) > 1e-9 {
		t.Errorf("KL = %v, want ln 2", got)
	}
}

func TestEMDKnown(t *testing.T) {
	// Moving all mass one bin over costs exactly 1 CDF step.
	got, err := EMD([]float64{1, 0}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("EMD = %v, want 1", got)
	}
	// Two bins apart costs 2.
	got, _ = EMD([]float64{1, 0, 0}, []float64{0, 0, 1})
	if got != 2 {
		t.Errorf("EMD over 2 bins = %v, want 2", got)
	}
}

func TestEMDOrderSensitivity(t *testing.T) {
	// EMD sees bin adjacency; L1 does not.
	a := []float64{1, 0, 0}
	near := []float64{0, 1, 0}
	far := []float64{0, 0, 1}
	dNear, _ := EMD(a, near)
	dFar, _ := EMD(a, far)
	if dNear >= dFar {
		t.Errorf("EMD near=%v should be < far=%v", dNear, dFar)
	}
	l1Near, _ := L1(a, near)
	l1Far, _ := L1(a, far)
	if l1Near != l1Far {
		t.Errorf("L1 should not distinguish: %v vs %v", l1Near, l1Far)
	}
}

func TestL1L2MaxDiffKnown(t *testing.T) {
	p := []float64{0.8, 0.2}
	q := []float64{0.5, 0.5}
	if d, _ := L1(p, q); math.Abs(d-0.6) > 1e-12 {
		t.Errorf("L1 = %v, want 0.6", d)
	}
	if d, _ := L2(p, q); math.Abs(d-math.Sqrt(0.18)) > 1e-12 {
		t.Errorf("L2 = %v", d)
	}
	if d, _ := MaxDiff(p, q); math.Abs(d-0.3) > 1e-12 {
		t.Errorf("MaxDiff = %v, want 0.3", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	// Symmetry of the metrics (not KL), non-negativity, triangle for L1/L2.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []float64 {
			v := make([]float64, 5)
			for i := range v {
				v[i] = rng.Float64()
			}
			return Normalize(v)
		}
		p, q, r := mk(), mk(), mk()
		for _, fn := range []func(a, b []float64) (float64, error){EMD, L1, L2, MaxDiff} {
			ab, _ := fn(p, q)
			ba, _ := fn(q, p)
			if math.Abs(ab-ba) > 1e-12 || ab < 0 {
				return false
			}
		}
		for _, fn := range []func(a, b []float64) (float64, error){L1, L2, EMD} {
			pq, _ := fn(p, q)
			qr, _ := fn(q, r)
			pr, _ := fn(p, r)
			if pr > pq+qr+1e-12 {
				return false
			}
		}
		kl, _ := KLDivergence(p, q)
		return kl >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUsability(t *testing.T) {
	u8, err := Usability(8)
	if err != nil {
		t.Fatal(err)
	}
	if u8 != 1 {
		t.Errorf("Usability(8) = %v, want 1 (peak)", u8)
	}
	u3, _ := Usability(3)
	u4, _ := Usability(4)
	u40, _ := Usability(40)
	if !(u3 < u4 && u4 < u8) {
		t.Errorf("usability should rise toward the ideal: u3=%v u4=%v u8=%v", u3, u4, u8)
	}
	if u40 >= u8 {
		t.Errorf("too many bins should hurt: u40=%v", u40)
	}
	if _, err := Usability(0); err == nil {
		t.Error("expected error for 0 bins")
	}
}

func TestAccuracy(t *testing.T) {
	// Two bins, constant value within each bin: lossless, accuracy 1.
	counts := []float64{2, 2}
	sums := []float64{2, 8}    // values 1,1 and 4,4
	sumSqs := []float64{2, 32} // 1+1, 16+16
	a, err := Accuracy(counts, sums, sumSqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-12 {
		t.Errorf("lossless accuracy = %v, want 1", a)
	}
	// One bin holding everything: within-bin SSE = TSS, accuracy 0.
	a, err = Accuracy([]float64{4}, []float64{10}, []float64{34}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a) > 1e-12 {
		t.Errorf("single-bin accuracy = %v, want 0", a)
	}
	// Constant measure: accuracy 1 regardless of binning.
	a, _ = Accuracy([]float64{2, 2}, []float64{6, 6}, []float64{18, 18}, 0)
	if a != 1 {
		t.Errorf("constant measure accuracy = %v, want 1", a)
	}
	if _, err := Accuracy([]float64{1}, []float64{1, 2}, []float64{1}, 0); err == nil {
		t.Error("expected mismatch error")
	}
	if _, err := Accuracy(nil, nil, nil, 0); err == nil {
		t.Error("expected empty error")
	}
}

// TestAccuracyLargeMean pins the cancellation bug the shift parameter
// fixes: with raw second moments, values near 1e9 lose all within-bin
// variance to float64 rounding and accuracy collapses to a garbage value.
// Values {1e9, 1e9+1 | 1e9+2} (bins of sizes 2 and 1), moments shifted by
// s = 1e9: per-bin Σv = {2e9+1, 1e9+2}, Σ(v−s)² = {0²+1², 2²} = {1, 4}.
// Bin SSEs are 1−1²/2 = 0.5 and 4−2²/1 = 0; TSS over shifted values
// {0,1,2} is 2, so accuracy = 1 − 0.5/2 = 0.75 — recoverable only because
// the moments were accumulated relative to the shift.
func TestAccuracyLargeMean(t *testing.T) {
	const shift = 1e9
	counts := []float64{2, 1}
	sums := []float64{2e9 + 1, 1e9 + 2}
	sumSqs := []float64{1, 4}
	a, err := Accuracy(counts, sums, sumSqs, shift)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.75) > 1e-9 {
		t.Errorf("large-mean accuracy = %v, want 0.75", a)
	}
}

func TestAccuracyEmptyBinsIgnored(t *testing.T) {
	a, err := Accuracy([]float64{0, 2, 2}, []float64{0, 2, 8}, []float64{0, 2, 32}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-12 {
		t.Errorf("accuracy with empty bin = %v, want 1", a)
	}
}

func TestChiSquareCDFKnown(t *testing.T) {
	// χ²(k=1): CDF(x) = erf(√(x/2)).
	for _, x := range []float64{0.1, 1, 2, 5} {
		got, err := ChiSquareCDF(x, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Erf(math.Sqrt(x / 2))
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("ChiSquareCDF(%v, 1) = %v, want %v", x, got, want)
		}
	}
	// χ²(k=2) is Exp(1/2): CDF(x) = 1 − e^{−x/2}.
	for _, x := range []float64{0.5, 2, 10} {
		got, _ := ChiSquareCDF(x, 2)
		want := 1 - math.Exp(-x/2)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("ChiSquareCDF(%v, 2) = %v, want %v", x, got, want)
		}
	}
	if got, _ := ChiSquareCDF(-1, 3); got != 0 {
		t.Errorf("CDF of negative x = %v, want 0", got)
	}
	if _, err := ChiSquareCDF(1, 0); err == nil {
		t.Error("expected error for k=0")
	}
}

func TestChiSquareCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(20)
		x1 := rng.Float64() * 30
		x2 := x1 + rng.Float64()*10
		c1, err1 := ChiSquareCDF(x1, k)
		c2, err2 := ChiSquareCDF(x2, k)
		if err1 != nil || err2 != nil {
			return false
		}
		return c2 >= c1-1e-12 && c1 >= 0 && c2 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPValueScore(t *testing.T) {
	ref := []float64{0.25, 0.25, 0.25, 0.25}
	// Target matching the reference: unremarkable, score near 0.
	low, err := PValueScore([]float64{25, 25, 25, 25}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if low > 0.2 {
		t.Errorf("matching target scored %v, want near 0", low)
	}
	// Target concentrated in one bin: extreme, score near 1.
	high, err := PValueScore([]float64{100, 0, 0, 0}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if high < 0.99 {
		t.Errorf("extreme target scored %v, want near 1", high)
	}
	if low >= high {
		t.Error("extreme target must outscore matching target")
	}
	// Mass where the reference has none: maximally surprising.
	s, err := PValueScore([]float64{5, 5}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("impossible-bin score = %v, want 1", s)
	}
	// No data at all.
	if s, _ := PValueScore([]float64{0, 0}, []float64{0.5, 0.5}); s != 0 {
		t.Errorf("empty target score = %v, want 0", s)
	}
	if _, err := PValueScore([]float64{-1, 1}, []float64{0.5, 0.5}); err == nil {
		t.Error("expected error for negative counts")
	}
}

func TestPValueScoreGrowsWithSampleSize(t *testing.T) {
	// The same relative skew is more significant with more data.
	ref := []float64{0.5, 0.5}
	small, _ := PValueScore([]float64{6, 4}, ref)
	large, _ := PValueScore([]float64{600, 400}, ref)
	if small >= large {
		t.Errorf("significance should grow with n: small=%v large=%v", small, large)
	}
}
