//go:build !go1.24

package store

import "viewseeker/internal/view"

// weakGen stands in for weak.Pointer before Go 1.24 with a strong
// reference: sharing is unchanged, but a cached version keeps its
// generator until the cache drops it.
type weakGen struct{ g *view.Generator }

func makeWeakGen(g *view.Generator) weakGen { return weakGen{g} }
func (w weakGen) Value() *view.Generator    { return w.g }
