package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"viewseeker/internal/feature"
)

// Component is one weighted term of an ideal utility function.
type Component struct {
	Feature string
	Weight  float64
}

// IdealFunction is a simulated user's true utility function u*():
// a linear combination of utility features (Eq. 4).
type IdealFunction struct {
	ID         int
	Components []Component
}

// Name renders the function the way Table 2 prints it.
func (f IdealFunction) Name() string {
	parts := make([]string, len(f.Components))
	for i, c := range f.Components {
		parts[i] = fmt.Sprintf("%.1f * %s", c.Weight, c.Feature)
	}
	return strings.Join(parts, " + ")
}

// NumComponents returns the number of weighted terms.
func (f IdealFunction) NumComponents() int { return len(f.Components) }

// Scores computes u*(v) for every view of a feature matrix. Each
// referenced feature column is min-max normalised over the view space
// before weighting: the raw utility components have wildly different
// scales (KL's smoothed divergence reaches ~20 while Usability and
// Accuracy live in [0, 1]), and Table 2's weights are only meaningful over
// comparable scales. Normalisation is affine per column, so u* remains a
// linear function of the raw features and stays exactly learnable by the
// linear view utility estimator.
func (f IdealFunction) Scores(m *feature.Matrix) ([]float64, error) {
	type columnScale struct {
		idx     int
		lo, inv float64 // x ↦ (x − lo) · inv
		weight  float64
	}
	scales := make([]columnScale, 0, len(f.Components))
	for _, c := range f.Components {
		idx := -1
		for j, n := range m.Names {
			if n == c.Feature {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("sim: ideal function references unknown feature %q", c.Feature)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range m.Rows {
			if row[idx] < lo {
				lo = row[idx]
			}
			if row[idx] > hi {
				hi = row[idx]
			}
		}
		inv := 0.0 // constant column contributes nothing
		if hi > lo {
			inv = 1 / (hi - lo)
		}
		scales = append(scales, columnScale{idx: idx, lo: lo, inv: inv, weight: c.Weight})
	}
	out := make([]float64, m.Len())
	for i, row := range m.Rows {
		s := 0.0
		for _, cs := range scales {
			s += cs.weight * (row[cs.idx] - cs.lo) * cs.inv
		}
		out[i] = s
	}
	return out, nil
}

// IdealFunctions returns Table 2: three single-component, three
// two-component and five three-component ideal utility functions.
func IdealFunctions() []IdealFunction {
	return []IdealFunction{
		{1, []Component{{feature.KL, 1.0}}},
		{2, []Component{{feature.EMD, 1.0}}},
		{3, []Component{{feature.MaxDiff, 1.0}}},
		{4, []Component{{feature.EMD, 0.5}, {feature.KL, 0.5}}},
		{5, []Component{{feature.EMD, 0.5}, {feature.L2, 0.5}}},
		{6, []Component{{feature.EMD, 0.5}, {feature.PValue, 0.5}}},
		{7, []Component{{feature.EMD, 0.3}, {feature.KL, 0.3}, {feature.MaxDiff, 0.4}}},
		{8, []Component{{feature.EMD, 0.3}, {feature.L2, 0.3}, {feature.MaxDiff, 0.4}}},
		{9, []Component{{feature.EMD, 0.3}, {feature.PValue, 0.3}, {feature.MaxDiff, 0.4}}},
		{10, []Component{{feature.EMD, 0.3}, {feature.KL, 0.3}, {feature.Usability, 0.4}}},
		{11, []Component{{feature.EMD, 0.3}, {feature.KL, 0.3}, {feature.Accuracy, 0.4}}},
	}
}

// IdealFunctionsWithComponents filters Table 2 by component count
// (1, 2 or 3) — the groupings behind Figures 3, 4, 6 and 7.
func IdealFunctionsWithComponents(n int) []IdealFunction {
	var out []IdealFunction
	for _, f := range IdealFunctions() {
		if f.NumComponents() == n {
			out = append(out, f)
		}
	}
	return out
}

// User simulates a study participant: it holds the ground-truth utility of
// every view (computed from exact features) and labels each presented view
// with its utility normalised against the space's maximum, exactly as the
// paper's simulated study does (u*(v)=0.7 ⇒ "about 70% of the maximum").
type User struct {
	Ideal  IdealFunction
	scores []float64
	max    float64
}

// NewUser evaluates the ideal function over the exact feature matrix.
func NewUser(ideal IdealFunction, exact *feature.Matrix) (*User, error) {
	scores, err := ideal.Scores(exact)
	if err != nil {
		return nil, err
	}
	u := &User{Ideal: ideal, scores: scores}
	for _, s := range scores {
		if s > u.max {
			u.max = s
		}
	}
	return u, nil
}

// Scores returns the ground-truth utility of every view (shared slice; do
// not mutate).
func (u *User) Scores() []float64 { return u.scores }

// Label returns the user's 0–1 interest label for a view.
func (u *User) Label(viewIdx int) float64 {
	if u.max <= 0 {
		return 0
	}
	l := u.scores[viewIdx] / u.max
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}

// TopK returns the ideal top-k view indices (best first, ties by index).
func (u *User) TopK(k int) []int { return TopKByScore(u.scores, k) }

// NoisyUser wraps a User with Gaussian label noise: real analysts do not
// rate views with oracle precision, so robustness studies perturb each
// label by N(0, sigma) and clamp to [0, 1]. Noise is drawn from a seeded
// stream, so sessions stay reproducible; the ground-truth Scores (and
// therefore precision/UD measurement) remain exact.
type NoisyUser struct {
	*User
	Sigma float64
	rng   *rand.Rand
}

// NewNoisyUser wraps a user with noise level sigma ≥ 0.
func NewNoisyUser(u *User, sigma float64, seed int64) (*NoisyUser, error) {
	if sigma < 0 {
		return nil, fmt.Errorf("sim: negative noise sigma %g", sigma)
	}
	return &NoisyUser{User: u, Sigma: sigma, rng: rand.New(rand.NewSource(seed))}, nil
}

// Label returns the perturbed 0–1 label for a view.
func (u *NoisyUser) Label(viewIdx int) float64 {
	l := u.User.Label(viewIdx) + u.rng.NormFloat64()*u.Sigma
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}

// TopKByScore ranks indices by score descending (ties by ascending index)
// and returns the first k.
func TopKByScore(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
