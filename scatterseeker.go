package viewseeker

import (
	"context"
	"fmt"

	"viewseeker/internal/core"
	"viewseeker/internal/feature"
	"viewseeker/internal/scatter"
)

// ScatterSpec identifies one scatter-plot view: a pair of measures.
type ScatterSpec = scatter.Spec

// ScatterView is one scatter view with its current score.
type ScatterView struct {
	Index int
	Spec  ScatterSpec
	Score float64
}

// ScatterSeeker is an interactive session over scatter-plot views — the
// visualization-type extension from the paper's future-work list. It uses
// the same active-learning core as the histogram Seeker, over
// correlation-shift utility features.
type ScatterSeeker struct {
	ref    *Table
	target *Table
	specs  []scatter.Spec
	matrix *feature.Matrix
	inner  *core.Seeker
}

// NewScatter builds a scatter session: query carves DQ out of the table;
// every unordered pair of measure columns becomes a candidate view. Only
// Options.K, M, Strategy and Seed apply (scatter summaries are single-pass
// and always exact, so there is no α tier).
func NewScatter(table *Table, query string, opts Options) (*ScatterSeeker, error) {
	if table == nil {
		return nil, fmt.Errorf("viewseeker: nil table")
	}
	target, err := runExplorationQuery(context.Background(), table, query)
	if err != nil {
		return nil, err
	}
	matrix, specs, err := scatter.BuildMatrix(table, target)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewSeeker(matrix, core.Config{K: opts.K, M: opts.M, ColdStartSeed: opts.Seed}, false)
	if err != nil {
		return nil, err
	}
	return &ScatterSeeker{ref: table, target: target, specs: specs, matrix: matrix, inner: inner}, nil
}

// NumViews returns the scatter view-space size.
func (s *ScatterSeeker) NumViews() int { return s.matrix.Len() }

// FeatureNames returns the scatter utility feature names.
func (s *ScatterSeeker) FeatureNames() []string { return scatter.FeatureNames }

// Next returns the next scatter view to label.
func (s *ScatterSeeker) Next() (ScatterView, error) {
	idxs, err := s.inner.NextViews()
	if err != nil {
		return ScatterView{}, err
	}
	if len(idxs) == 0 {
		return ScatterView{}, fmt.Errorf("viewseeker: every scatter view is labelled")
	}
	return s.viewAt(idxs[0]), nil
}

func (s *ScatterSeeker) viewAt(i int) ScatterView {
	return ScatterView{Index: i, Spec: s.specs[i], Score: s.inner.Predict(i)}
}

// Feedback records a 0–1 interest label.
func (s *ScatterSeeker) Feedback(index int, label float64) error {
	return s.inner.Feedback(index, label)
}

// NumLabels returns how many labels have been given.
func (s *ScatterSeeker) NumLabels() int { return s.inner.NumLabels() }

// TopK returns the current recommendation, best first.
func (s *ScatterSeeker) TopK() []ScatterView {
	idxs := s.inner.TopK()
	out := make([]ScatterView, len(idxs))
	for i, idx := range idxs {
		out[i] = s.viewAt(idx)
	}
	return out
}

// Pair executes one scatter view's summaries.
func (s *ScatterSeeker) Pair(index int) (*scatter.Pair, error) {
	if index < 0 || index >= s.NumViews() {
		return nil, fmt.Errorf("viewseeker: scatter view %d out of range [0, %d)", index, s.NumViews())
	}
	return scatter.Execute(s.ref, s.target, s.specs[index])
}

// Render draws one scatter view as side-by-side target/reference ASCII
// density grids.
func (s *ScatterSeeker) Render(index int) (string, error) {
	p, err := s.Pair(index)
	if err != nil {
		return "", err
	}
	return p.Render(s.ref, s.target, 0, 0)
}

// Weights returns the learned utility composition over the scatter
// features.
func (s *ScatterSeeker) Weights() (map[string]float64, float64) {
	w, b := s.inner.Weights()
	if w == nil {
		return nil, 0
	}
	out := make(map[string]float64, len(w))
	for i, name := range scatter.FeatureNames {
		out[name] = w[i]
	}
	return out, b
}
