package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"viewseeker/internal/active"
	"viewseeker/internal/feature"
	"viewseeker/internal/ml"
	"viewseeker/internal/obs"
	"viewseeker/internal/optimize"
)

// Seeker runs Algorithm 1 over a pre-computed feature matrix: present
// views, absorb labels, refit the view utility estimator, recommend top-k.
// It is the engine behind the public viewseeker.Seeker facade.
type Seeker struct {
	matrix *feature.Matrix
	cfg    Config

	labeled map[int]float64
	order   []int // labelling order, for reporting

	utility *ml.LinearRegression
	cold    *active.ColdStart
	refiner *optimize.Refiner

	havePositive bool
	haveNegative bool

	// Incremental-refit state. The sufficient statistics absorb one
	// standardised row per new label; they are valid only for the matrix
	// version (and whole-space scaler) they were accumulated under, so any
	// row refresh invalidates them and the next refit rebuilds from the
	// label history. suffYs records the labels absorbed so far — a
	// relabelled view changes an already-absorbed y, which rank-1 updates
	// cannot express, so it too forces a rebuild.
	suff      *ml.SuffStats
	suffN     int
	suffYs    []float64
	scaler    *ml.Scaler
	scalerVer uint64
	scalerSet bool
	zbuf      []float64
}

// NewSeeker builds a session over the matrix. When the matrix was computed
// partially (α-sampling), pass withRefinement true to enable per-iteration
// incremental refinement.
func NewSeeker(m *feature.Matrix, cfg Config, withRefinement bool) (*Seeker, error) {
	if m == nil || m.Len() == 0 {
		return nil, fmt.Errorf("core: seeker needs a non-empty feature matrix")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Seeker{
		matrix:  m,
		cfg:     cfg,
		labeled: make(map[int]float64),
		utility: ml.NewLinearRegression(cfg.Ridge),
		cold:    &active.ColdStart{Seed: cfg.ColdStartSeed},
	}
	if withRefinement {
		s.refiner = optimize.NewRefiner(m)
		s.refiner.Workers = cfg.Workers
		s.refiner.OnRow = cfg.RefineHook
	}
	return s, nil
}

// Matrix exposes the session's feature matrix.
func (s *Seeker) Matrix() *feature.Matrix { return s.matrix }

// NumLabels returns how many labels have been collected.
func (s *Seeker) NumLabels() int { return len(s.labeled) }

// Labels returns the labelling history in order: view indices paired with
// the labels given.
func (s *Seeker) Labels() (indices []int, labels []float64) {
	indices = append(indices, s.order...)
	for _, i := range indices {
		labels = append(labels, s.labeled[i])
	}
	return indices, labels
}

// InColdStart reports whether the session is still acquiring its first
// positive and negative labels.
func (s *Seeker) InColdStart() bool { return !(s.havePositive && s.haveNegative) }

// NextViews selects the views to present this iteration: the cold-start
// walk until both a positive and a negative label exist, then the
// configured query strategy. It returns nil when every view is labelled.
func (s *Seeker) NextViews() ([]int, error) {
	return s.NextViewsCtx(context.Background())
}

// NextViewsCtx is NextViews with per-iteration selection timing recorded
// against the context's observability registry and tracer (the
// active-learning layer's half of the interaction loop; FeedbackCtx
// records the other half). Selection itself never blocks on the context —
// it is pure in-memory ranking — so there is no cancellation semantics to
// define here; the context only carries instrumentation.
func (s *Seeker) NextViewsCtx(ctx context.Context) ([]int, error) {
	if len(s.labeled) >= s.matrix.Len() {
		return nil, nil
	}
	_, span := obs.StartSpan(ctx, "select")
	defer span.End()
	reg := obs.RegistryFrom(ctx)
	start := time.Time{}
	if reg != nil {
		start = time.Now()
	}
	var idxs []int
	var err error
	if s.InColdStart() {
		idxs, err = s.cold.Select(s.matrix.Rows, s.labeled, s.cfg.M)
	} else {
		idxs, err = s.cfg.Strategy.Select(s.matrix.Rows, s.labeled, s.cfg.M)
	}
	if reg != nil {
		reg.Histogram("viewseeker_active_select_seconds", obs.DurationBuckets).
			ObserveDuration(time.Since(start))
		reg.Counter("viewseeker_active_selects_total").Inc()
	}
	return idxs, err
}

// Feedback records the user's label (0–1) for a view, runs the incremental
// refinement budget, and refits the view utility estimator on everything
// labelled so far.
func (s *Seeker) Feedback(viewIdx int, label float64) error {
	return s.FeedbackCtx(context.Background(), viewIdx, label)
}

// FeedbackCtx is Feedback under a context. The cancellation contract keeps
// session state consistent: a context that is already done on entry
// records nothing and returns its error, while cancellation observed
// mid-call only aborts the optional incremental refinement — it is
// latency-hiding work, so stopping it is equivalent to an exhausted
// budget — and the label recording and estimator refit still complete.
// Either way the caller never sees a half-applied label.
func (s *Seeker) FeedbackCtx(ctx context.Context, viewIdx int, label float64) error {
	if viewIdx < 0 || viewIdx >= s.matrix.Len() {
		return fmt.Errorf("core: view index %d out of range [0, %d)", viewIdx, s.matrix.Len())
	}
	if label < 0 || label > 1 {
		return fmt.Errorf("core: label %g outside [0, 1]", label)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, span := obs.StartSpan(ctx, "feedback")
	defer span.End()
	if reg := obs.RegistryFrom(ctx); reg != nil {
		// The full label→refine→refit round trip — the latency the user
		// actually waits out between giving a label and seeing the next
		// recommendation. The acceptance target for interactive scale is
		// < 1 s per iteration (iterate_sampled's iter_p50_ms in
		// benchmark/ measures it at SYN 1M).
		start := time.Now()
		defer func() {
			reg.Histogram("viewseeker_feedback_iteration_seconds", obs.DurationBuckets).
				ObserveDuration(time.Since(start))
		}()
	}
	obs.RegistryFrom(ctx).Counter("viewseeker_active_labels_total").Inc()
	if _, dup := s.labeled[viewIdx]; !dup {
		s.order = append(s.order, viewIdx)
	}
	s.labeled[viewIdx] = label
	if label >= s.cfg.PositiveThreshold {
		s.havePositive = true
	} else {
		s.haveNegative = true
	}

	// Spend the latency budget refining rough features (Section 3.3): the
	// labelled view first (the estimator must train on exact features),
	// then the most promising rough views in estimator-rank order, up to
	// RefineCap rows — the work that hides inside the user's think time.
	// Views that never reach the front of this queue are pruned: their
	// exact features are simply never computed.
	if s.refiner != nil && !s.refiner.Done() {
		if _, err := s.refiner.RefineCtx(ctx, s.refinePriority(viewIdx), s.cfg.RefineBudget); err != nil {
			// Cancellation stops the optional work, not the feedback: rows
			// already refreshed stay exact, and the refit below proceeds on
			// the matrix as it stands. Real refresh failures still abort.
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				return err
			}
		}
	}
	_, refitSpan := obs.StartSpan(ctx, "feedback.refit")
	defer refitSpan.End()
	if reg := obs.RegistryFrom(ctx); reg != nil {
		start := time.Now()
		defer func() {
			reg.Histogram("viewseeker_active_refit_seconds", obs.DurationBuckets).
				ObserveDuration(time.Since(start))
		}()
	}
	return s.refit(ctx)
}

// refinePriority orders the rough rows one iteration may refresh: first
// the view just labelled (the estimator must train on exact features),
// then the current top-k (they decide what the user sees), then the
// remaining views in estimator-rank order, truncated to the refinement
// cap. Views never reaching the front of this queue are the "less
// promising" calculations the optimisation prunes.
func (s *Seeker) refinePriority(justLabeled int) []int {
	limit := s.cfg.RefineCap
	out := make([]int, 0, limit)
	seen := make(map[int]bool, limit)
	push := func(i int) {
		if len(out) < limit && !seen[i] && !s.matrix.Exact[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	// Pushing a view also pushes its aggregate siblings — the views over
	// the same (dimension, bins, measure). Their exact features come from
	// the same narrow scan, so upgrading them is nearly free, and it
	// concentrates the scans the cap pays for onto fewer column families.
	pushFamily := func(i int) {
		push(i)
		spec := s.matrix.Specs[i]
		for j, other := range s.matrix.Specs {
			if other.Dimension == spec.Dimension && other.Bins == spec.Bins && other.Measure == spec.Measure {
				push(j)
			}
		}
	}
	pushFamily(justLabeled)
	for _, i := range s.TopK() {
		pushFamily(i)
	}
	for _, i := range s.rankAll() {
		if len(out) >= limit {
			break
		}
		pushFamily(i)
	}
	return out
}

// refit retrains the utility estimator on the labelled set. It keeps
// sufficient statistics (ml.SuffStats) keyed to the matrix version: while
// the matrix is stable — refinement finished, or none configured — each
// new label is absorbed as a rank-1 update and the solve costs O(k²)
// regardless of how many labels exist. Any matrix refresh bumps the
// version, which invalidates both the whole-space scaler and the
// statistics, and the next refit rebuilds them from the label history
// (O(labels·k²) — labels stay small, a user gives a few dozen at most).
// Either path runs the identical Add sequence over the current rows, so a
// restored session replaying its history refits bit-identically to the
// session it snapshots (see SessionState).
func (s *Seeker) refit(ctx context.Context) error {
	if len(s.order) == 0 {
		return nil
	}
	reg := obs.RegistryFrom(ctx)
	// Standardise against the whole view space, not just the labelled
	// rows: the estimator predicts over every view, and labelled-only
	// statistics would let near-constant-among-labels features explode on
	// the rest of the space. Matrix rows change under refinement, so the
	// scaler is keyed to the matrix version and refitted when it moves
	// (cheap: |views| × |features|).
	ver := s.matrix.Version()
	if !s.scalerSet || ver != s.scalerVer {
		scaler, err := ml.FitScaler(s.matrix.Rows)
		if err != nil {
			return err
		}
		s.scaler = scaler
		s.scalerVer = ver
		s.scalerSet = true
		s.suff = nil // statistics are bound to the scaler's feature space
	}
	// A relabelled view rewrites an absorbed y in place; rank-1 updates
	// cannot undo that, so a history prefix mismatch forces a rebuild.
	if s.suff != nil && s.suffN <= len(s.order) {
		for i := 0; i < s.suffN; i++ {
			if s.suffYs[i] != s.labeled[s.order[i]] {
				s.suff = nil
				break
			}
		}
	} else {
		s.suff = nil
	}
	k := len(s.matrix.Rows[0])
	if s.suff == nil {
		s.suff = ml.NewSuffStats(k)
		s.suffN = 0
		s.suffYs = s.suffYs[:0]
		reg.Counter("viewseeker_refit_rebuilds_total").Inc()
	} else {
		reg.Counter("viewseeker_refit_incremental_total").Inc()
	}
	if len(s.zbuf) != k {
		s.zbuf = make([]float64, k)
	}
	for _, i := range s.order[s.suffN:] {
		y := s.labeled[i]
		s.scaler.TransformInto(s.matrix.Rows[i], s.zbuf)
		if err := s.suff.Add(s.zbuf, y); err != nil {
			return err
		}
		s.suffYs = append(s.suffYs, y)
		s.suffN++
	}
	s.utility.ExternalScaler = s.scaler
	return s.utility.FitSufficient(s.suff)
}

// Predict returns the current estimator's utility for one view (0 before
// any feedback).
func (s *Seeker) Predict(viewIdx int) float64 {
	return s.utility.Predict(s.matrix.Rows[viewIdx])
}

// rankAll returns every view index sorted by predicted utility descending,
// ties by index.
func (s *Seeker) rankAll() []int {
	scores := s.utility.PredictAll(s.matrix.Rows)
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
	return idx
}

// TopK returns the current top-k recommendation (view indices, best
// first).
func (s *Seeker) TopK() []int {
	ranked := s.rankAll()
	k := s.cfg.K
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k]
}

// Estimator exposes the trained view utility estimator — the discovered
// u_p() approximating the user's ideal utility function.
func (s *Seeker) Estimator() *ml.LinearRegression { return s.utility }

// Weights returns the estimator's learned feature weights (Eq. 4's β,
// unnormalised) and intercept, aligned with matrix feature order.
func (s *Seeker) Weights() ([]float64, float64) { return s.utility.Weights() }
