package store

import (
	"fmt"
	"sync"

	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/view"
)

// OfflineResult is one immutable offline version: the view space and
// utility-feature rows with exactness flags (α-sampled rows are rough) of
// one (table version, query, α, space config), plus what its sessions
// share in memory — the decoded target subset and a view generator. Each
// session refines into its own copy-on-write overlay (feature.Rebuild).
// Only exported fields are persisted. Make versions with NewVersion.
type OfflineResult struct {
	Specs []view.Spec
	Names []string
	Rows  [][]float64
	Exact []bool
	// Target is the snapshot form (internal/dataset binary encoding) of
	// the target subset; in memory TargetTable holds it decoded, so a warm
	// session skips query execution too.
	Target []byte

	target *dataset.Table
	gen    *genSlot
}

// NewVersion makes a version of m's view space and rows over the target
// subset DQ they were computed on, taking them over: nobody may write m
// afterwards. A non-nil gen is owned by the version — a maintained
// live-table state, whose scans the next advance extends; otherwise see
// Generator.
func NewVersion(m *feature.Matrix, target *dataset.Table, gen *view.Generator) *OfflineResult {
	return &OfflineResult{
		Specs: m.Specs, Names: m.Names, Rows: m.Rows, Exact: m.Exact,
		target: target, gen: &genSlot{owned: gen},
	}
}

// TargetTable returns the decoded target subset.
func (r *OfflineResult) TargetTable() *dataset.Table { return r.target }

// genSlot is a version's view generator. An owned one lives as long as
// the version. Any other is held weakly: it lives exactly as long as some
// session holds it, so a cached version never keeps scan caches alive
// that no resident — and charged — session uses.
type genSlot struct {
	owned *view.Generator

	mu     sync.Mutex
	shared weakGen
}

// Generator returns the version's generator: the owned one, else the one
// its sessions currently share, else build's result, which becomes the
// shared one (concurrent first callers wait for one build; build may be
// nil on an owning version). Callers keep it alive by holding it.
func (r *OfflineResult) Generator(build func() (*view.Generator, error)) (*view.Generator, error) {
	s := r.gen
	if s.owned != nil {
		return s.owned, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g := s.shared.Value(); g != nil {
		return g, nil
	}
	g, err := build()
	if err != nil {
		return nil, err
	}
	s.shared = makeWeakGen(g)
	return g, nil
}

// validate checks the result's internal shape and that it carries a
// non-empty target, so that a corrupted or hand-edited snapshot can never
// crash a session built from it.
func (r *OfflineResult) validate() error {
	if r == nil || len(r.Specs) == 0 {
		return fmt.Errorf("store: empty offline result")
	}
	if r.target == nil || r.target.NumRows() == 0 {
		return fmt.Errorf("store: offline result has no target subset")
	}
	if len(r.Rows) != len(r.Specs) || len(r.Exact) != len(r.Specs) {
		return fmt.Errorf("store: offline result has %d specs, %d rows, %d exact flags",
			len(r.Specs), len(r.Rows), len(r.Exact))
	}
	for i, row := range r.Rows {
		if len(row) != len(r.Names) {
			return fmt.Errorf("store: offline result row %d has %d features, want %d",
				i, len(row), len(r.Names))
		}
	}
	return nil
}
