package exp

import (
	"fmt"
	"time"

	"viewseeker"
	"viewseeker/internal/sim"
)

// DefaultKs is the k sweep of Figures 3, 4, 6 and 7.
var DefaultKs = []int{5, 10, 15, 20, 25, 30}

// defaultMaxLabels bounds simulated sessions; the paper's sessions finish
// in 7–16 labels, so 100 is a generous safety margin.
const defaultMaxLabels = 100

// EffortCurve is one averaged series of Figures 3/4: labels needed to
// reach 100% top-k precision as a function of k, averaged over an ideal-
// utility-function group.
type EffortCurve struct {
	Dataset    string
	Components int // 1, 2 or 3 — the u* group
	Ks         []int
	Labels     []float64 // average labels per k
	Converged  bool      // every underlying session converged
}

// LabelsToFullPrecision runs Experiment 1 for one testbed and one u*
// group: for each k it averages, over the group's ideal functions, the
// number of labels the seeker needs before top-k precision reaches 100%.
func LabelsToFullPrecision(tb *Testbed, components int, ks []int) (*EffortCurve, error) {
	return meanLabels(tb, components, ks, sim.StopAtFullPrecision)
}

// meanLabels averages, for each k, the labels exact sessions need to meet
// criterion over the u* group with the given component count.
func meanLabels(tb *Testbed, components int, ks []int, criterion sim.StopCriterion) (*EffortCurve, error) {
	fns := sim.IdealFunctionsWithComponents(components)
	if len(fns) == 0 {
		return nil, fmt.Errorf("exp: no ideal functions with %d components", components)
	}
	if len(ks) == 0 {
		ks = DefaultKs
	}
	curve := &EffortCurve{Dataset: tb.Name, Components: components, Ks: ks, Converged: true}
	for _, k := range ks {
		total := 0.0
		for _, fn := range fns {
			user, err := sim.NewUser(fn, tb.Exact)
			if err != nil {
				return nil, err
			}
			res, err := tb.runExact(user, k, criterion)
			if err != nil {
				return nil, fmt.Errorf("exp: %s u*#%d k=%d: %w", tb.Name, fn.ID, k, err)
			}
			if !res.Converged {
				curve.Converged = false
			}
			total += float64(res.LabelsUsed)
		}
		curve.Labels = append(curve.Labels, total/float64(len(fns)))
	}
	return curve, nil
}

// runExact drives a fresh exact session with recommendation size k by
// user until criterion holds.
func (tb *Testbed) runExact(user sim.Labeller, k int, criterion sim.StopCriterion) (*sim.Result, error) {
	s, err := tb.NewSession(k)
	if err != nil {
		return nil, err
	}
	return run(s, user, k, criterion)
}

// run drives s by user until criterion holds or defaultMaxLabels are spent.
func run(s *viewseeker.Seeker, user sim.Labeller, k int, criterion sim.StopCriterion) (*sim.Result, error) {
	return (&sim.Runner{Seeker: indexed{s}, User: user, K: k,
		MaxLabels: defaultMaxLabels, Criterion: criterion}).Run()
}

// indexed adapts a facade session to sim.Seeker, which speaks view
// indices.
type indexed struct{ *viewseeker.Seeker }

func (s indexed) NextViews() ([]int, error) {
	vs, err := s.Seeker.NextViews()
	return indices(vs), err
}

func (s indexed) TopK() []int { return indices(s.Seeker.TopK()) }

func indices(vs []viewseeker.View) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.Index
	}
	return out
}

// BaselineResult is one bar of Figure 5: the maximum top-k precision a
// fixed ranker achieves against the ideal utility function.
type BaselineResult struct {
	Name      string
	Precision float64
}

// BaselineComparison runs Experiment 2 (Figure 5): for the given ideal
// function (the paper uses u* #11 on DIAB, k=10), it measures the
// precision of each single utility feature used as a fixed ranker
// (viewseeker.StaticTopK), and of ViewSeeker after an interactive
// session. StaticTopK ranks the default view space, so the testbed must
// use the default space configuration (DIAB does).
func BaselineComparison(tb *Testbed, fn sim.IdealFunction, k int) ([]BaselineResult, error) {
	if k <= 0 {
		k = 10
	}
	if len(tb.Opts.BinCounts) > 0 {
		return nil, fmt.Errorf("exp: %s testbed has a custom view space; StaticTopK ranks the default one", tb.Name)
	}
	user, err := sim.NewUser(fn, tb.Exact)
	if err != nil {
		return nil, err
	}
	var out []BaselineResult
	for _, name := range tb.Session.FeatureNames() {
		top, err := viewseeker.StaticTopK(tb.Ref, tb.Query, name, k)
		if err != nil {
			return nil, err
		}
		p, err := sim.Precision(indices(top), user.Scores(), k)
		if err != nil {
			return nil, err
		}
		out = append(out, BaselineResult{Name: name, Precision: p})
	}
	res, err := tb.runExact(user, k, sim.StopAtFullPrecision)
	if err != nil {
		return nil, err
	}
	out = append(out, BaselineResult{Name: "ViewSeeker", Precision: res.FinalPrecision})
	return out, nil
}

// OptimizationPoint is one k of Figures 6 and 7: labels to UD=0 and total
// system runtime, with and without the α-sampling + incremental-refinement
// optimisation.
type OptimizationPoint struct {
	K               int
	LabelsBaseline  float64
	LabelsOptimized float64
	TimeBaseline    time.Duration
	TimeOptimized   time.Duration
}

// OptimizationCurve is one u*-group series of Figures 6/7.
type OptimizationCurve struct {
	Dataset    string
	Components int
	Alpha      float64
	Points     []OptimizationPoint
}

// OptimizationStudy compares the optimisations-enabled ViewSeeker against
// the optimisations-disabled baseline (Section 5.2): both run to UD = 0;
// runtime is a cold session's whole life, offline phase included
// (Testbed.ColdRun), at α = 1 and at alpha.
func OptimizationStudy(tb *Testbed, components int, ks []int, alpha float64) (*OptimizationCurve, error) {
	fns := sim.IdealFunctionsWithComponents(components)
	if len(fns) == 0 {
		return nil, fmt.Errorf("exp: no ideal functions with %d components", components)
	}
	if len(ks) == 0 {
		ks = DefaultKs
	}
	if alpha <= 0 {
		alpha = 0.1
	}
	curve := &OptimizationCurve{Dataset: tb.Name, Components: components, Alpha: alpha}
	for _, k := range ks {
		pt := OptimizationPoint{K: k}
		for _, fn := range fns {
			user, err := sim.NewUser(fn, tb.Exact)
			if err != nil {
				return nil, err
			}
			labels, elapsed, err := tb.ColdRun(user, k, 1)
			if err != nil {
				return nil, err
			}
			pt.LabelsBaseline += float64(labels)
			pt.TimeBaseline += elapsed
			labels, elapsed, err = tb.ColdRun(user, k, alpha)
			if err != nil {
				return nil, err
			}
			pt.LabelsOptimized += float64(labels)
			pt.TimeOptimized += elapsed
		}
		n := float64(len(fns))
		pt.LabelsBaseline /= n
		pt.LabelsOptimized /= n
		pt.TimeBaseline /= time.Duration(n)
		pt.TimeOptimized /= time.Duration(n)
		curve.Points = append(curve.Points, pt)
	}
	return curve, nil
}
