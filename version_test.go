package viewseeker

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"viewseeker/internal/dataset"
)

// TestSessionsShareOneOfflineVersion pins the ownership model: two
// cache-hit sessions on one fingerprint reference the same offline
// version — target, rows and generator — and refinement in one α-sampled
// session is copy-on-write: the other session's rows, the cached entry's
// rows and the snapshot files are untouched.
func TestSessionsShareOneOfflineVersion(t *testing.T) {
	table := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 1500, Seed: 42})
	query := "SELECT * FROM diab WHERE age_group = '[80-90)'"
	dir := t.TempDir()
	cache, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, Alpha: 0.3, Workers: 1, Cache: cache}
	if _, err := New(table, query, opts); err != nil { // cold: fills the cache
		t.Fatal(err)
	}
	a, err := New(table, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(table, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.CacheHit() || !b.CacheHit() {
		t.Fatal("expected two cache hits")
	}
	if a.off != b.off || a.Target() != b.Target() {
		t.Fatal("cache-hit sessions do not share their offline version and target")
	}
	ga, err := a.generator()
	if err != nil {
		t.Fatal(err)
	}
	if gb, _ := b.generator(); ga != gb {
		t.Fatal("cache-hit sessions built separate generators")
	}

	snapshots := func() map[string][]byte {
		paths, err := filepath.Glob(filepath.Join(dir, "*.vscache"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no snapshots: %v", err)
		}
		out := make(map[string][]byte)
		for _, p := range paths {
			if out[p], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	copyRows := func(rows [][]float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = append([]float64(nil), r...)
		}
		return out
	}
	filesBefore := snapshots()
	versionRows := copyRows(a.off.Rows)
	bRows, bExact := copyRows(b.matrix.Rows), append([]bool(nil), b.matrix.Exact...)

	refined := 0
	for i := 0; i < 6; i++ {
		v, _, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Feedback(v.Index, float64(v.Index%2)); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range a.matrix.Exact {
		if e && !a.off.Exact[i] {
			refined++
			if &a.matrix.Rows[i][0] == &a.off.Rows[i][0] {
				t.Fatalf("row %d was refined in place in the shared version", i)
			}
		}
	}
	if refined == 0 {
		t.Fatal("feedback refined no rows; the test exercises nothing")
	}

	same := func(what string, got, want [][]float64) {
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%s row %d feature %d changed: %v -> %v", what, i, j, want[i][j], got[i][j])
				}
			}
		}
	}
	same("cached version", a.off.Rows, versionRows)
	same("other session", b.matrix.Rows, bRows)
	for i, e := range bExact {
		if b.matrix.Exact[i] != e || a.off.Exact[i] != e {
			t.Fatalf("exactness flag %d leaked out of the refining session", i)
		}
	}
	for p, before := range filesBefore {
		after, err := os.ReadFile(p)
		if err != nil || !bytes.Equal(after, before) {
			t.Fatalf("snapshot %s changed under refinement (%v)", filepath.Base(p), err)
		}
	}
}

// TestColdCreateFillsOneEntry: a cold create makes one offline version
// and stores it once — one cache entry, one snapshot file — under its
// query address; the cold session and every later hit share that
// version, target included.
func TestColdCreateFillsOneEntry(t *testing.T) {
	table := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 1500, Seed: 42})
	query := "SELECT * FROM diab WHERE age_group = '[80-90)'"
	dir := t.TempDir()
	cache, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, Cache: cache}
	cold, err := New(table, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit() {
		t.Fatal("first session hit an empty cache")
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("one cold create left %d cache entries, want 1", n)
	}
	if paths, _ := filepath.Glob(filepath.Join(dir, "*.vscache")); len(paths) != 1 {
		t.Fatalf("one cold create wrote %d snapshots, want 1", len(paths))
	}
	if hits, misses, _ := cache.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("one cold create probed the cache %d/%d times (hits/misses), want 0/1", hits, misses)
	}
	for i := 0; i < 2; i++ {
		hit, err := New(table, query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.CacheHit() || hit.off != cold.off || hit.Target() != cold.Target() {
			t.Fatal("a cache hit does not share the cold session's offline version")
		}
	}
}

// TestSharedVersionConcurrentSessions drives α-sampled sessions over one
// cached version from several goroutines at once — concurrent first use
// of the shared generator, concurrent refinement scans on it — and checks
// they share it and, given the same labels, recommend identically.
func TestSharedVersionConcurrentSessions(t *testing.T) {
	table := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 1500, Seed: 42})
	query := "SELECT * FROM diab WHERE age_group = '[80-90)'"
	opts := Options{K: 5, Alpha: 0.3, Workers: 2, Cache: NewCache(0)}
	if _, err := New(table, query, opts); err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Seeker, 4)
	errs := make(chan error, len(sessions))
	for i := range sessions {
		go func(i int) {
			s, err := New(table, query, opts)
			if err == nil {
				for j := 0; j < 5 && err == nil; j++ {
					var v View
					if v, _, err = s.Next(); err == nil {
						err = s.Feedback(v.Index, float64(v.Index%2))
					}
				}
			}
			sessions[i] = s
			errs <- err
		}(i)
	}
	for range sessions {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := sessions[0].TopK()
	for _, s := range sessions[1:] {
		if s.gen != sessions[0].gen {
			t.Fatal("concurrent sessions built separate generators")
		}
		for i, v := range s.TopK() {
			if v != want[i] {
				t.Fatalf("top-k[%d] = %+v, want %+v", i, v, want[i])
			}
		}
	}
}

// TestSessionMemoryIgnoresSharedRefSide is the accounting trap: a session
// is charged for its target side and its own state, never for the
// reference side its table version shares with every other session, so
// its MemoryBytes after SQL(0) and Pair(0) must not depend on whether
// another session over the same table warmed that side first. α-sampled
// sessions make a difference visible: their own pass leaves the shared
// full-data reference statistics cold, and an exact session over another
// query fills them.
func TestSessionMemoryIgnoresSharedRefSide(t *testing.T) {
	charge := func(warmFirst bool) int64 {
		t.Helper()
		table := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 1500, Seed: 42})
		if warmFirst {
			if _, err := New(table, "SELECT * FROM diab WHERE diag_group = 'diabetes'", Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(table, "SELECT * FROM diab WHERE age_group = '[80-90)'", Options{K: 5, Alpha: 0.3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SQL(0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Pair(0); err != nil {
			t.Fatal(err)
		}
		return s.MemoryBytes()
	}
	if cold, warm := charge(false), charge(true); cold != warm {
		t.Fatalf("session charged %d bytes over a cold reference side, %d over one another session warmed", cold, warm)
	}
}
