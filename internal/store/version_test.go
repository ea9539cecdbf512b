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
// one generator a version shares — built once, whatever they pass. An
// owned generator is returned without building.
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
	v := NewVersion(m, ref, nil)
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
	if builds != 1 || a != b {
		t.Fatalf("%d builds; generators %p %p — want one shared build", builds, a, b)
	}
	owner := NewVersion(m, ref, g0)
	if g, _ := owner.Generator(nil); g != g0 {
		t.Fatal("a version did not return the generator it owns")
	}
}

// TestSnapshotVersion1Compatible pins the disk format. A query-addressed
// snapshot written by the version-1 encoder before versions carried
// in-memory state (testdata/golden.vscache) still loads with its target
// decoded, and the current encoder writes byte for byte what the
// version-1 encoder wrote for the same content: the exported result with
// the target's binary encoding inline. (Gob numbers types per process, so
// bytes are compared against an in-process encoding, not the file.)
func TestSnapshotVersion1Compatible(t *testing.T) {
	target := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 12, Seed: 5})
	m := goldenMatrix()
	got, ok := loadGolden(t, "golden")
	if !ok {
		t.Fatal("version-1 snapshot did not load")
	}
	for i := range m.Rows {
		if got.Specs[i] != m.Specs[i] || got.Exact[i] != m.Exact[i] ||
			got.Rows[i][0] != m.Rows[i][0] || got.Rows[i][1] != m.Rows[i][1] {
			t.Fatalf("view %d loaded as %v %v %v", i, got.Specs[i], got.Rows[i], got.Exact[i])
		}
	}
	if got.TargetTable().NumRows() != target.NumRows() {
		t.Fatalf("target has %d rows, want %d", got.TargetTable().NumRows(), target.NumRows())
	}

	var encoded bytes.Buffer
	if err := dataset.WriteBinary(target, &encoded); err != nil {
		t.Fatal(err)
	}
	v1 := OfflineResult{Specs: m.Specs, Names: m.Names, Rows: m.Rows, Exact: m.Exact, Target: encoded.Bytes()}
	var want bytes.Buffer
	if err := gob.NewEncoder(&want).Encode(snapshot{Version: 1, Fingerprint: "golden", Result: v1}); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	c, err := Open(out, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("golden", NewVersion(m, target, nil)); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(out, "golden.vscache"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, want.Bytes()) {
		t.Fatalf("encoder output changed (%d bytes vs %d)", len(written), want.Len())
	}
}

// TestTargetlessSnapshotIsQuarantined: a version-1 snapshot without a
// target subset (testdata/golden-content.vscache, written when entries
// could also be addressed by the target's contents) is a miss, and the
// file is quarantined so the slot can be refilled.
func TestTargetlessSnapshotIsQuarantined(t *testing.T) {
	if _, ok := loadGolden(t, "golden-content"); ok {
		t.Fatal("a snapshot without a target loaded")
	}
}

// goldenMatrix is the view space and rows the testdata snapshots hold.
func goldenMatrix() *feature.Matrix {
	m := &feature.Matrix{Names: []string{"F1", "F2"}}
	for i := 0; i < 3; i++ {
		m.Specs = append(m.Specs, view.Spec{Dimension: "d", Measure: "m", Agg: "COUNT", Bins: i})
		m.Rows = append(m.Rows, []float64{float64(i) + 0.5, float64(i) * 2})
		m.Exact = append(m.Exact, i != 1)
	}
	return m
}

// loadGolden serves testdata/<fp>.vscache from a fresh disk cache,
// failing the test if a rejected file is left in place.
func loadGolden(t *testing.T, fp string) (*OfflineResult, bool) {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", fp+".vscache"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, fp+".vscache")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(fp)
	if _, err := os.Stat(path); !ok && !os.IsNotExist(err) {
		t.Fatalf("%s: rejected snapshot not quarantined", fp)
	}
	return got, ok
}

// FuzzReadSnapshot: decoding a snapshot never panics, and every snapshot
// it accepts is a valid version that carries a non-empty target.
func FuzzReadSnapshot(f *testing.F) {
	for _, fp := range []string{"golden", "golden-content"} {
		data, err := os.ReadFile(filepath.Join("testdata", fp+".vscache"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, fp)
		f.Add(data[:len(data)/2], fp)
	}
	f.Fuzz(func(t *testing.T, data []byte, fp string) {
		res, err := decodeSnapshot(bytes.NewReader(data), fp)
		if err != nil {
			return
		}
		if err := res.validate(); err != nil {
			t.Fatalf("accepted an invalid snapshot: %v", err)
		}
		if res.TargetTable().NumRows() == 0 {
			t.Fatal("accepted a snapshot with an empty target")
		}
	})
}
