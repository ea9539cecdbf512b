//go:build go1.24

package store

import (
	"runtime"
	"testing"

	"viewseeker/internal/feature"
	"viewseeker/internal/view"
)

// TestSharedGeneratorLivesWithItsSessions: a version holds a generator it
// does not own only weakly — once no caller keeps it, the collector takes
// it and the next caller builds afresh — so a cached version never keeps
// scan caches alive that no session uses.
func TestSharedGeneratorLivesWithItsSessions(t *testing.T) {
	ref := testTable(t, 4)
	builds := 0
	build := func() (*view.Generator, error) {
		builds++
		return view.NewGenerator(ref, ref, view.SpaceConfig{})
	}
	v := NewVersion(&feature.Matrix{}, nil, nil)
	g, err := v.Generator(build)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if again, _ := v.Generator(build); again != g || builds != 1 {
		t.Fatal("a generator still held by a caller was rebuilt")
	}
	g = nil
	runtime.GC()
	if _, err := v.Generator(build); err != nil || builds != 2 {
		t.Fatalf("after the last holder let go: %d builds, want a rebuild", builds)
	}
}
