//go:build go1.24

package store

import (
	"weak"

	"viewseeker/internal/view"
)

// weakGen references a shared generator without keeping it alive.
type weakGen = weak.Pointer[view.Generator]

func makeWeakGen(g *view.Generator) weakGen { return weak.Make(g) }
