package store

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/view"
)

// TestCacheSharesVersions: the cache hands out the version it was given,
// by reference — no copy on Put, none on Get — so every session over one
// fingerprint overlays the same rows.
func TestCacheSharesVersions(t *testing.T) {
	c := NewCache(4)
	v := testResult(2)
	if err := c.Put("fp", v); err != nil {
		t.Fatal(err)
	}
	got1, _ := c.Get("fp")
	got2, _ := c.Get("fp")
	if got1 != v || got2 != v {
		t.Fatal("Get handed out a copy instead of the stored version")
	}
}

// TestVersionGeneratorSharedOnce: concurrent and later callers get the
// one generator a version shares — built once, whatever they pass — and
// the query-addressed twin shares it too. An owned generator is returned
// without building.
func TestVersionGeneratorSharedOnce(t *testing.T) {
	ref := testTable(t, 3)
	g0, err := view.NewGenerator(ref, ref, view.SpaceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := &feature.Matrix{Specs: g0.Specs(), Names: []string{"F"}}
	for range m.Specs {
		m.Rows = append(m.Rows, []float64{1})
		m.Exact = append(m.Exact, true)
	}
	v := NewVersion(m, nil, nil)
	builds := 0
	build := func() (*view.Generator, error) {
		builds++
		return view.NewGenerator(ref, ref, view.SpaceConfig{})
	}
	a, err := v.Generator(build)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := v.Generator(build)
	twin, _ := v.WithTarget(ref).Generator(build)
	if builds != 1 || a != b || a != twin {
		t.Fatalf("%d builds; generators %p %p %p — want one shared build", builds, a, b, twin)
	}
	owner := NewVersion(m, ref, g0)
	if g, _ := owner.Generator(nil); g != g0 {
		t.Fatal("a version did not return the generator it owns")
	}
}

// TestSnapshotVersion1Compatible pins the disk format. Snapshots written
// by the version-1 encoder before versions carried in-memory state (the
// files under testdata) still load, the query-addressed one with its
// target decoded. And the current encoder writes byte for byte what the
// version-1 encoder wrote for the same content: the exported result with
// the target's binary encoding inline. (Gob numbers types per process, so
// bytes are compared against an in-process encoding, not the files.)
func TestSnapshotVersion1Compatible(t *testing.T) {
	target := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 12, Seed: 5})
	m := &feature.Matrix{Names: []string{"F1", "F2"}}
	for i := 0; i < 3; i++ {
		m.Specs = append(m.Specs, view.Spec{Dimension: "d", Measure: "m", Agg: "COUNT", Bins: i})
		m.Rows = append(m.Rows, []float64{float64(i) + 0.5, float64(i) * 2})
		m.Exact = append(m.Exact, i != 1)
	}
	for _, tc := range []struct {
		fp     string
		target *dataset.Table
	}{{"golden", target}, {"golden-content", nil}} {
		golden, err := os.ReadFile(filepath.Join("testdata", tc.fp+".vscache"))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, tc.fp+".vscache"), golden, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(tc.fp)
		if !ok {
			t.Fatalf("%s: version-1 snapshot did not load", tc.fp)
		}
		for i := range m.Rows {
			if got.Specs[i] != m.Specs[i] || got.Exact[i] != m.Exact[i] ||
				got.Rows[i][0] != m.Rows[i][0] || got.Rows[i][1] != m.Rows[i][1] {
				t.Fatalf("%s: view %d loaded as %v %v %v", tc.fp, i, got.Specs[i], got.Rows[i], got.Exact[i])
			}
		}
		if (got.TargetTable() != nil) != (tc.target != nil) {
			t.Fatalf("%s: loaded target %v, want one: %v", tc.fp, got.TargetTable(), tc.target != nil)
		}
		if tc.target != nil && got.TargetTable().NumRows() != tc.target.NumRows() {
			t.Fatalf("%s: target has %d rows, want %d", tc.fp, got.TargetTable().NumRows(), tc.target.NumRows())
		}

		v1 := OfflineResult{Specs: m.Specs, Names: m.Names, Rows: m.Rows, Exact: m.Exact}
		if tc.target != nil {
			var buf bytes.Buffer
			if err := dataset.WriteBinary(tc.target, &buf); err != nil {
				t.Fatal(err)
			}
			v1.Target = buf.Bytes()
		}
		var want bytes.Buffer
		if err := gob.NewEncoder(&want).Encode(snapshot{Version: 1, Fingerprint: tc.fp, Result: v1}); err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		c2, err := Open(out, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.Put(tc.fp, NewVersion(m, tc.target, nil)); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(filepath.Join(out, tc.fp+".vscache"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, want.Bytes()) {
			t.Fatalf("%s: encoder output changed (%d bytes vs %d)", tc.fp, len(written), want.Len())
		}
	}
}
