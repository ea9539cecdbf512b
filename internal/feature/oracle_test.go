package feature

import (
	"fmt"

	"viewseeker/internal/view"
)

// The per-pair path is the specification the layout-block kernel is held
// to: a view's row is Registry.Vector over its Histogram pair, every
// feature dispatched through its closure. Production fills whole layout
// blocks at once (block.go); these oracles rebuild rows the per-pair way
// from the same statistics, so any drift in the block kernel shows as a
// bit difference.

// perPairRow computes view s's whole feature row through the per-pair
// path, from its layout's reference and target statistics.
func perPairRow(r *Registry, s view.Spec, rs, ts *view.Stats) ([]float64, error) {
	p, err := view.AssemblePair(s, rs, ts)
	if err != nil {
		return nil, err
	}
	return r.Vector(p)
}

// perPairMatrix is the whole-row per-pair oracle of computeMatrix: every
// view's row through perPairRow, over the full data (refRows == nil) or
// an α-sample of the reference table, computed sequentially.
func perPairMatrix(g *view.Generator, r *Registry, refRows []int) ([][]float64, error) {
	statsOf := g.LayoutStats
	if refRows != nil {
		statsOf = g.NewSampledRun(refRows, nil).LayoutStats
	}
	rows := make([][]float64, len(g.Specs()))
	for i, s := range g.Specs() {
		rs, ts, err := statsOf(s)
		if err != nil {
			return nil, err
		}
		if rows[i], err = perPairRow(r, s, rs, ts); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// RefreshRow is the per-view refresh oracle that RefreshFamily is pinned
// against (TestRefreshFamilyMatchesRefreshRow): it recomputes view i on
// the full data through the per-pair path — the family statistics, then
// the registry's per-feature closures — and marks it exact. It is a no-op
// for exact rows; like RefreshFamily it installs a freshly allocated row
// and never writes the rough one.
func (m *Matrix) RefreshRow(i int) error {
	if i < 0 || i >= len(m.Rows) {
		return fmt.Errorf("feature: row %d out of range [0, %d)", i, len(m.Rows))
	}
	if m.Exact[i] {
		return nil
	}
	rs, ts, err := m.gen.FamilyStats(m.Specs[i])
	if err != nil {
		return err
	}
	vec, err := perPairRow(m.registry, m.Specs[i], rs, ts)
	if err != nil {
		return err
	}
	m.Rows[i] = vec
	m.Exact[i] = true
	m.version.Add(1)
	return nil
}

// Vector computes all features for one pair, in registry order: the
// per-pair specification of one matrix row.
func (r *Registry) Vector(p *view.Pair) ([]float64, error) {
	out := make([]float64, len(r.feats))
	for i, f := range r.feats {
		v, err := f.Compute(p)
		if err != nil {
			return nil, fmt.Errorf("feature: computing %s for %s: %w", f.Name, p.Spec, err)
		}
		out[i] = v
	}
	return out, nil
}
