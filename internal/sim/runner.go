package sim

import (
	"fmt"
	"time"
)

// StopCriterion selects when a simulated session is finished.
type StopCriterion int

// The stop criteria used by the paper's experiments.
const (
	// StopAtFullPrecision ends the session when top-k precision reaches
	// 100% (Experiment 1, Figures 3–4).
	StopAtFullPrecision StopCriterion = iota
	// StopAtZeroUD ends the session when the utility distance reaches 0
	// (Optimisation evaluation, Figures 6–7).
	StopAtZeroUD
)

// udZero is the tolerance under which a utility distance counts as zero.
const udZero = 1e-9

// Labeller is what the runner needs from a simulated participant: labels
// for presented views (possibly noisy) and the exact ground-truth scores
// that precision and utility distance are measured against.
type Labeller interface {
	Label(viewIdx int) float64
	Scores() []float64
}

// Seeker is the session a runner drives, over view indices. core.Seeker
// satisfies it; internal/exp adapts the public viewseeker.Seeker to it.
type Seeker interface {
	Next() (idx int, ok bool, err error)
	Feedback(viewIdx int, label float64) error
	TopK() []int
}

// Runner drives one simulated session: the user labels whatever the
// seeker presents until the criterion is met or MaxLabels is spent.
type Runner struct {
	Seeker    Seeker
	User      Labeller
	K         int
	MaxLabels int // default 100
	Criterion StopCriterion
}

// Result summarises one session.
type Result struct {
	LabelsUsed     int
	Converged      bool
	FinalPrecision float64
	FinalUD        float64
	Elapsed        time.Duration // compute time only; labelling is free
}

// Run executes the session loop of Algorithm 1 against the simulated user.
func (r *Runner) Run() (*Result, error) {
	if r.Seeker == nil || r.User == nil {
		return nil, fmt.Errorf("sim: runner needs a seeker and a user")
	}
	if r.K <= 0 {
		return nil, fmt.Errorf("sim: runner needs k > 0")
	}
	maxLabels := r.MaxLabels
	if maxLabels <= 0 {
		maxLabels = 100
	}
	res := &Result{}
	start := time.Now()
	for res.LabelsUsed < maxLabels {
		v, ok, err := r.Seeker.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break // everything labelled
		}
		if err := r.Seeker.Feedback(v, r.User.Label(v)); err != nil {
			return nil, err
		}
		res.LabelsUsed++
		done, err := r.evaluate(res)
		if err != nil {
			return nil, err
		}
		if done {
			res.Converged = true
			break
		}
	}
	if !res.Converged {
		if _, err := r.evaluate(res); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func (r *Runner) evaluate(res *Result) (bool, error) {
	pred := r.Seeker.TopK()
	if len(pred) < r.K {
		return false, fmt.Errorf("sim: seeker returned %d views, need k=%d (configure the seeker with K ≥ runner K)", len(pred), r.K)
	}
	p, err := Precision(pred, r.User.Scores(), r.K)
	if err != nil {
		return false, err
	}
	ud, err := utilityDistance(pred, r.User.Scores(), r.K)
	if err != nil {
		return false, err
	}
	res.FinalPrecision, res.FinalUD = p, ud
	switch r.Criterion {
	case StopAtFullPrecision:
		return p >= 1, nil
	case StopAtZeroUD:
		return ud <= udZero, nil
	default:
		return false, fmt.Errorf("sim: unknown stop criterion %d", r.Criterion)
	}
}
