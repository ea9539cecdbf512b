package feature

import "fmt"

// RefreshRow is the per-view refresh oracle that RefreshFamily is pinned
// against (TestRefreshFamilyMatchesRefreshRow): it recomputes view i on
// the full data through the per-pair path — PairFocused, then the
// registry's per-feature closures — and marks it exact. It is a no-op for
// exact rows; like RefreshFamily it installs a freshly allocated row and
// never writes the rough one.
func (m *Matrix) RefreshRow(i int) error {
	if i < 0 || i >= len(m.Rows) {
		return fmt.Errorf("feature: row %d out of range [0, %d)", i, len(m.Rows))
	}
	if m.Exact[i] {
		return nil
	}
	p, err := m.gen.PairFocused(m.Specs[i])
	if err != nil {
		return err
	}
	vec, err := m.registry.Vector(p)
	if err != nil {
		return err
	}
	m.Rows[i] = vec
	m.Exact[i] = true
	m.version.Add(1)
	return nil
}
