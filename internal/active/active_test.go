package active

import (
	"testing"

	"viewseeker/internal/ml"
)

// twoClusterRows builds feature rows where views 0..4 score high on
// feature 0 and views 5..9 score high on feature 1.
func twoClusterRows() [][]float64 {
	rows := make([][]float64, 10)
	for i := range rows {
		if i < 5 {
			rows[i] = []float64{1 - float64(i)*0.1, 0.1}
		} else {
			rows[i] = []float64{0.1, 1 - float64(i-5)*0.1}
		}
	}
	return rows
}

// spaceScaler is the whole-space scaler a session would pass for rows.
func spaceScaler(t testing.TB, rows [][]float64) *ml.Scaler {
	t.Helper()
	s, err := ml.FitScaler(rows)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUnlabeledIndices(t *testing.T) {
	got := unlabeledIndices(5, map[int]float64{1: 0.5, 3: 0.2})
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("unlabeled = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unlabeled = %v, want %v", got, want)
		}
	}
}

func TestTopByScoreTies(t *testing.T) {
	got := topByScore([]int{3, 1, 2}, func(i int) float64 { return 1 })
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("ties must break by ascending index: %v", got)
	}
	if idx, ok := best(4, map[int]float64{0: 1}, func(i int) float64 { return 1 }); !ok || idx != 1 {
		t.Errorf("best of a tie = %d, %v; want the lowest unlabelled index 1", idx, ok)
	}
}

func TestColdStartWalksFeatures(t *testing.T) {
	rows := twoClusterRows()
	c := &ColdStart{Seed: 1}
	labeled := map[int]float64{}
	// First call: top of feature 0 → view 0.
	got, _, err := c.Select(rows, nil, labeled)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("first cold-start pick = %d, want 0", got)
	}
	labeled[0] = 0.9
	if c.cursor >= 2 {
		t.Error("not yet exhausted after one feature")
	}
	// Second call: top of feature 1 → view 5.
	got, _, _ = c.Select(rows, nil, labeled)
	if got != 5 {
		t.Errorf("second cold-start pick = %d, want 5", got)
	}
	labeled[5] = 0.1
	// Third call: features exhausted → random among the rest.
	got, ok, _ := c.Select(rows, nil, labeled)
	if c.cursor < 2 {
		t.Error("should be exhausted after both features")
	}
	if _, already := labeled[got]; !ok || already {
		t.Error("random fallback must pick an unlabelled view")
	}
}

func TestColdStartSkipsLabeled(t *testing.T) {
	rows := twoClusterRows()
	c := &ColdStart{}
	labeled := map[int]float64{0: 0.9}
	got, _, err := c.Select(rows, nil, labeled)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("should pick next-best by feature 0: got %d, want 1", got)
	}
}

func TestUncertaintySelectsBoundary(t *testing.T) {
	// Views along a line; labels known at the ends. Uncertainty must pick
	// near the middle, not the ends.
	rows := make([][]float64, 11)
	for i := range rows {
		rows[i] = []float64{float64(i) / 10}
	}
	labeled := map[int]float64{0: 0, 1: 0, 9: 1, 10: 1}
	u := &Uncertainty{}
	got, _, err := u.Select(rows, spaceScaler(t, rows), labeled)
	if err != nil {
		t.Fatal(err)
	}
	if got < 3 || got > 7 {
		t.Errorf("uncertainty picked %d, want a middle view", got)
	}
}

func TestUncertaintyNoLabelsActsUniform(t *testing.T) {
	rows := twoClusterRows()
	u := &Uncertainty{}
	got, ok, err := u.Select(rows, spaceScaler(t, rows), map[int]float64{})
	if err != nil {
		t.Fatal(err)
	}
	// Untrained model: all uncertainties equal → the lowest index.
	if !ok || got != 0 {
		t.Errorf("untrained selection = %d, %v; want view 0", got, ok)
	}
}

func TestUncertaintyAllLabeled(t *testing.T) {
	rows := [][]float64{{1}, {2}}
	labeled := map[int]float64{0: 1, 1: 0}
	u := &Uncertainty{}
	got, ok, err := u.Select(rows, spaceScaler(t, rows), labeled)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("nothing to select, got %d", got)
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	rows := twoClusterRows()
	a := &Random{Seed: 7}
	b := &Random{Seed: 7}
	for step := 0; step < 4; step++ {
		ga, _, _ := a.Select(rows, nil, map[int]float64{})
		gb, _, _ := b.Select(rows, nil, map[int]float64{})
		if ga != gb {
			t.Fatalf("step %d: same seed must select identically (%d vs %d)", step, ga, gb)
		}
	}
	// Never returns labelled views, and stops once all are labelled.
	labeled := map[int]float64{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
	for len(labeled) < len(rows) {
		g, ok, _ := a.Select(rows, nil, labeled)
		if _, already := labeled[g]; !ok || already {
			t.Fatalf("selected %d, %v with %d of %d labelled", g, ok, len(labeled), len(rows))
		}
		labeled[g] = 1
	}
	if g, ok, _ := a.Select(rows, nil, labeled); ok {
		t.Errorf("selected %d from an exhausted space", g)
	}
}

func TestCommitteeSelectsDisagreement(t *testing.T) {
	rows := make([][]float64, 21)
	for i := range rows {
		rows[i] = []float64{float64(i-10) / 10}
	}
	labeled := map[int]float64{0: 0, 1: 0, 2: 0, 18: 1, 19: 1, 20: 1}
	c := &Committee{Seed: 3}
	got, _, err := c.Select(rows, spaceScaler(t, rows), labeled)
	if err != nil {
		t.Fatal(err)
	}
	// The committee should disagree near the middle of the gap.
	if got < 5 || got > 15 {
		t.Errorf("committee picked %d, want middle region", got)
	}
}

func TestStrategyValidation(t *testing.T) {
	one := [][]float64{{1}}
	for _, s := range []Strategy{&Uncertainty{}, &ColdStart{}, &Random{}, &Committee{}, &DensityWeighted{}} {
		if _, _, err := s.Select(nil, nil, nil); err == nil {
			t.Errorf("%T: empty rows should fail", s)
		}
		if got, ok, err := s.Select(one, spaceScaler(t, one), nil); err != nil || !ok || got != 0 {
			t.Errorf("%T: one-view space = %d, %v, %v; want view 0", s, got, ok, err)
		}
		if got, ok, err := s.Select(one, spaceScaler(t, one), map[int]float64{0: 1}); err != nil || ok {
			t.Errorf("%T: exhausted space = %d, %v, %v; want none", s, got, ok, err)
		}
	}
}

func TestDensityWeightedPrefersDenseRegions(t *testing.T) {
	// A tight cluster plus one extreme outlier, all equally uncertain (no
	// labels yet → untrained model, uncertainty 0.5 everywhere): the
	// density term must steer selection into the cluster, away from the
	// outlier that plain uncertainty sampling could waste a label on.
	rows := [][]float64{
		{0.00, 0}, {0.01, 0}, {0.02, 0}, {0.03, 0}, {0.04, 0},
		{50, 50}, // outlier
	}
	d := &DensityWeighted{}
	got, _, err := d.Select(rows, spaceScaler(t, rows), map[int]float64{})
	if err != nil {
		t.Fatal(err)
	}
	if got == 5 {
		t.Errorf("density weighting picked the outlier")
	}
}

func TestDensityWeightedBasics(t *testing.T) {
	rows := twoClusterRows()
	d := &DensityWeighted{}
	scaler := spaceScaler(t, rows)
	labeled := map[int]float64{0: 0.9, 5: 0.1}
	got, ok, err := d.Select(rows, scaler, labeled)
	if err != nil {
		t.Fatal(err)
	}
	if _, already := labeled[got]; !ok || already {
		t.Errorf("selected %d, %v; want an unlabelled view", got, ok)
	}
	// Density cache reused across calls with the same scaler.
	cached := d.densities
	if _, _, err := d.Select(rows, scaler, labeled); err != nil {
		t.Fatal(err)
	}
	if &d.densities[0] != &cached[0] {
		t.Error("same scaler recomputed the densities")
	}
	// A new scaler means the rows moved: the densities are recomputed.
	if _, _, err := d.Select(rows, spaceScaler(t, rows), labeled); err != nil {
		t.Fatal(err)
	}
	if &d.densities[0] == &cached[0] {
		t.Error("a new scaler kept the stale densities")
	}
	// The scaler is required.
	if _, _, err := d.Select(rows, nil, labeled); err == nil {
		t.Error("a nil scaler should fail")
	}
}
