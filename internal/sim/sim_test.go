package sim

import (
	"fmt"
	"math"
	"testing"

	"viewseeker/internal/core"
	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/view"
)

func exactMatrix(t *testing.T) *feature.Matrix {
	t.Helper()
	ref := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 4000, Seed: 21})
	var rows []int
	diag := ref.Column("diag_group").Strs
	age := ref.Column("age_group").Strs
	for i := range diag {
		if diag[i] == "diabetes" && (age[i] == "[80-90)" || age[i] == "[90-100)") {
			rows = append(rows, i)
		}
	}
	tgt := ref.Subset("tgt", rows)
	g, err := view.NewGenerator(ref, tgt, view.SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := feature.ComputeWorkers(g, feature.StandardRegistry(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIdealFunctionsTable2(t *testing.T) {
	fns := IdealFunctions()
	if len(fns) != 11 {
		t.Fatalf("Table 2 has 11 functions, got %d", len(fns))
	}
	counts := map[int]int{}
	for i, f := range fns {
		if f.ID != i+1 {
			t.Errorf("function %d has ID %d", i, f.ID)
		}
		total := 0.0
		for _, c := range f.Components {
			total += c.Weight
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("function %d weights sum to %v, want 1", f.ID, total)
		}
		counts[f.NumComponents()]++
	}
	if counts[1] != 3 || counts[2] != 3 || counts[3] != 5 {
		t.Errorf("component counts = %v, want 3/3/5", counts)
	}
	if got := len(IdealFunctionsWithComponents(2)); got != 3 {
		t.Errorf("two-component functions = %d", got)
	}
	if name := fns[3].Name(); name != "0.5 * EMD + 0.5 * KL" {
		t.Errorf("function 4 name = %q", name)
	}
}

func TestIdealFunctionScore(t *testing.T) {
	f := IdealFunction{ID: 99, Components: []Component{{"A", 0.25}, {"B", 0.75}}}
	s, err := f.RawScore([]string{"A", "B"}, []float64{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if s != 0.25*4+0.75*8 {
		t.Errorf("score = %v", s)
	}
	if _, err := f.RawScore([]string{"A"}, []float64{1}); err == nil {
		t.Error("unknown feature should fail")
	}
}

func TestUserLabelsNormalised(t *testing.T) {
	m := exactMatrix(t)
	u, err := NewUser(IdealFunctions()[1], m) // 1.0*EMD
	if err != nil {
		t.Fatal(err)
	}
	best := u.TopK(1)[0]
	if math.Abs(u.Label(best)-1) > 1e-12 {
		t.Errorf("best view label = %v, want 1", u.Label(best))
	}
	for i := 0; i < m.Len(); i++ {
		l := u.Label(i)
		if l < 0 || l > 1 {
			t.Fatalf("label %d = %v outside [0,1]", i, l)
		}
	}
}

func TestTopKByScore(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopKByScore(scores, 3)
	if top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Errorf("top3 = %v (ties must break by index)", top)
	}
	if got := TopKByScore(scores, 99); len(got) != 5 {
		t.Errorf("k beyond n should clamp: %d", len(got))
	}
}

func TestPrecisionExactAndTies(t *testing.T) {
	scores := []float64{1.0, 0.9, 0.8, 0.8, 0.1}
	// Ideal top-3 = {0,1,2} but 3 ties with 2.
	p, err := Precision([]int{0, 1, 3}, scores, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Errorf("tie-aware precision = %v, want 1", p)
	}
	p, _ = Precision([]int{0, 1, 4}, scores, 3)
	if math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("precision = %v, want 2/3", p)
	}
	if _, err := Precision([]int{0}, scores, 3); err == nil {
		t.Error("short prediction should fail")
	}
	if _, err := Precision([]int{0, 1, 99}, scores, 3); err == nil {
		t.Error("out-of-range prediction should fail")
	}
	if _, err := Precision([]int{0}, scores, 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestUtilityDistance(t *testing.T) {
	scores := []float64{1.0, 0.9, 0.8, 0.8, 0.1}
	ud, err := utilityDistance([]int{0, 1, 3}, scores, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ud != 0 {
		t.Errorf("tied swap UD = %v, want 0", ud)
	}
	ud, _ = utilityDistance([]int{0, 1, 4}, scores, 3)
	want := (0.8 - 0.1) / 3
	if math.Abs(ud-want) > 1e-12 {
		t.Errorf("UD = %v, want %v", ud, want)
	}
}

func TestRunnerConvergesToFullPrecision(t *testing.T) {
	m := exactMatrix(t)
	for _, fn := range []IdealFunction{IdealFunctions()[0], IdealFunctions()[6]} {
		u, err := NewUser(fn, m)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSeeker(m, core.Config{K: 5}, false)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Seeker: s, User: u, K: 5, MaxLabels: 60, Criterion: StopAtFullPrecision}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Errorf("u* #%d: did not converge in %d labels (precision %.2f)",
				fn.ID, res.LabelsUsed, res.FinalPrecision)
			continue
		}
		if res.FinalPrecision < 1 {
			t.Errorf("u* #%d: converged but precision %v", fn.ID, res.FinalPrecision)
		}
		if res.LabelsUsed > 40 {
			t.Errorf("u* #%d: needed %d labels, expect few dozen max", fn.ID, res.LabelsUsed)
		}
	}
}

func TestRunnerZeroUDCriterion(t *testing.T) {
	m := exactMatrix(t)
	u, err := NewUser(IdealFunctions()[1], m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSeeker(m, core.Config{K: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Seeker: s, User: u, K: 5, MaxLabels: 60, Criterion: StopAtZeroUD}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.FinalUD > udZero {
		t.Errorf("UD session: converged=%v UD=%v labels=%d", res.Converged, res.FinalUD, res.LabelsUsed)
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := (&Runner{}).Run(); err == nil {
		t.Error("empty runner should fail")
	}
	m := exactMatrix(t)
	u, _ := NewUser(IdealFunctions()[0], m)
	s, _ := core.NewSeeker(m, core.Config{K: 3}, false)
	if _, err := (&Runner{Seeker: s, User: u}).Run(); err == nil {
		t.Error("k=0 should fail")
	}
	// Runner K larger than seeker K must error, not mis-measure.
	r := &Runner{Seeker: s, User: u, K: 10, MaxLabels: 5}
	if _, err := r.Run(); err == nil {
		t.Error("runner K > seeker K should fail")
	}
}

func TestRunnerMaxLabelsBound(t *testing.T) {
	m := exactMatrix(t)
	u, _ := NewUser(IdealFunctions()[10], m) // hardest: 3 components with accuracy
	s, _ := core.NewSeeker(m, core.Config{K: 5}, false)
	r := &Runner{Seeker: s, User: u, K: 5, MaxLabels: 3, Criterion: StopAtFullPrecision}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelsUsed > 3 {
		t.Errorf("labels used = %d, budget 3", res.LabelsUsed)
	}
}

func TestNoisyUserBounds(t *testing.T) {
	m := exactMatrix(t)
	base, err := NewUser(IdealFunctions()[1], m)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewNoisyUser(base, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := 0; i < m.Len(); i++ {
		l := noisy.Label(i)
		if l < 0 || l > 1 {
			t.Fatalf("noisy label %v outside [0,1]", l)
		}
		if l != base.Label(i) {
			diff = true
		}
	}
	if !diff {
		t.Error("sigma=0.3 should perturb at least one label")
	}
	// Ground truth stays exact.
	for i, s := range noisy.Scores() {
		if s != base.Scores()[i] {
			t.Fatal("Scores must stay exact under noise")
		}
	}
	if _, err := NewNoisyUser(base, -1, 1); err == nil {
		t.Error("negative sigma should fail")
	}
	// Zero noise is the identity.
	clean, _ := NewNoisyUser(base, 0, 1)
	for i := 0; i < m.Len(); i++ {
		if clean.Label(i) != base.Label(i) {
			t.Fatal("sigma=0 must not perturb")
		}
	}
}

func TestRunnerWithNoisyUser(t *testing.T) {
	m := exactMatrix(t)
	base, err := NewUser(IdealFunctions()[1], m)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewNoisyUser(base, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSeeker(m, core.Config{K: 5}, false)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Seeker: s, User: noisy, K: 5, MaxLabels: 60, Criterion: StopAtFullPrecision}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Mild noise should still reach high precision, maybe with more labels.
	if res.FinalPrecision < 0.6 {
		t.Errorf("precision under mild noise = %v", res.FinalPrecision)
	}
}

// RawScore computes the weighted sum over one un-normalised feature row.
func (f IdealFunction) RawScore(names []string, row []float64) (float64, error) {
	s := 0.0
	for _, c := range f.Components {
		idx := -1
		for j, n := range names {
			if n == c.Feature {
				idx = j
				break
			}
		}
		if idx < 0 {
			return 0, fmt.Errorf("sim: ideal function references unknown feature %q", c.Feature)
		}
		s += c.Weight * row[idx]
	}
	return s, nil
}
