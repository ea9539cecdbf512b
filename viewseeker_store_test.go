// Offline-result cache tests at the public API level: a warm session must
// be indistinguishable from a cold one — identical recommendations,
// identical learned weights — and cache failures must degrade to
// recomputation, never to a broken session.
package viewseeker_test

import (
	"os"
	"path/filepath"
	"testing"

	"viewseeker"
	"viewseeker/internal/dataset"
)

func cacheTestTable() *viewseeker.Table {
	return dataset.GenerateDIAB(dataset.DIABConfig{Rows: 1500, Seed: 42})
}

const cacheTestQuery = "SELECT * FROM diab WHERE age_group = '[80-90)'"

// driveSession labels 10 views chosen by the session itself with a fixed
// deterministic rule, then returns the session for inspection.
func driveSession(t *testing.T, s *viewseeker.Seeker) {
	t.Helper()
	for i := 0; i < 10; i++ {
		v, _, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		label := 0.0
		if v.Index%3 == 0 {
			label = 1.0
		}
		if err := s.Feedback(v.Index, label); err != nil {
			t.Fatal(err)
		}
	}
}

// sessionsAgree asserts two driven sessions produced bit-identical top-k
// lists (indices and scores) and learned weights.
func sessionsAgree(t *testing.T, a, b *viewseeker.Seeker, context string) {
	t.Helper()
	at, bt := a.TopK(), b.TopK()
	if len(at) != len(bt) {
		t.Fatalf("%s: top-k sizes %d vs %d", context, len(at), len(bt))
	}
	for i := range at {
		if at[i].Index != bt[i].Index || at[i].Score != bt[i].Score {
			t.Fatalf("%s: top-k[%d] = (%d, %v) vs (%d, %v)",
				context, i, at[i].Index, at[i].Score, bt[i].Index, bt[i].Score)
		}
	}
	aw, ab := a.Weights()
	bw, bb := b.Weights()
	if ab != bb {
		t.Fatalf("%s: intercepts %v vs %v", context, ab, bb)
	}
	for name, av := range aw {
		if bv, ok := bw[name]; !ok || av != bv {
			t.Fatalf("%s: weight %s = %v vs %v", context, name, av, bv)
		}
	}
}

func TestCacheHitMatchesColdSession(t *testing.T) {
	table := cacheTestTable()
	opts := viewseeker.Options{K: 5, Seed: 3}

	cold, err := viewseeker.New(table, cacheTestQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit() {
		t.Fatal("session without a cache reports a cache hit")
	}

	cache := viewseeker.NewCache(0)
	opts.Cache = cache
	miss, err := viewseeker.New(table, cacheTestQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit() {
		t.Fatal("first cached session cannot be a hit")
	}
	hit, err := viewseeker.New(table, cacheTestQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit() {
		t.Fatal("second identical session missed the cache")
	}

	// Pre-feedback, the cached view space must already be identical.
	if hit.NumViews() != cold.NumViews() {
		t.Fatalf("view space %d vs %d", hit.NumViews(), cold.NumViews())
	}
	cs, hs := cold.Specs(), hit.Specs()
	for i := range cs {
		if cs[i] != hs[i] {
			t.Fatalf("spec %d: %v vs %v", i, cs[i], hs[i])
		}
	}

	driveSession(t, cold)
	driveSession(t, miss)
	driveSession(t, hit)
	sessionsAgree(t, cold, miss, "cold vs miss")
	sessionsAgree(t, cold, hit, "cold vs hit")
}

func TestCacheMissOnDifferentInputs(t *testing.T) {
	table := cacheTestTable()
	cache := viewseeker.NewCache(0)
	if _, err := viewseeker.New(table, cacheTestQuery, viewseeker.Options{K: 5, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]viewseeker.Options{
		"different alpha": {K: 5, Cache: cache, Alpha: 0.5},
		"different bins":  {K: 5, Cache: cache, BinCounts: []int{3, 4}},
		"extra feature": {K: 5, Cache: cache, ExtraFeatures: []viewseeker.Feature{{
			Name: "ZERO", Compute: func(*viewseeker.Pair) (float64, error) { return 0, nil }}}},
	} {
		s, err := viewseeker.New(table, cacheTestQuery, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.CacheHit() {
			t.Errorf("%s: hit an entry for a different configuration", name)
		}
	}
	// A different query selecting a different subset must miss too.
	s, err := viewseeker.New(table, "SELECT * FROM diab WHERE age_group = '[70-80)'",
		viewseeker.Options{K: 5, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheHit() {
		t.Error("different query hit the cache")
	}
}

// TestWarmSessionExecutesViews exercises everything that needs the lazily
// built generator on the warm path: pair execution, rendering, SQL export.
func TestWarmSessionExecutesViews(t *testing.T) {
	table := cacheTestTable()
	cache := viewseeker.NewCache(0)
	opts := viewseeker.Options{K: 5, Cache: cache}
	if _, err := viewseeker.New(table, cacheTestQuery, opts); err != nil {
		t.Fatal(err)
	}
	warm, err := viewseeker.New(table, cacheTestQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit() {
		t.Fatal("expected a cache hit")
	}
	if _, err := warm.Pair(0); err != nil {
		t.Fatalf("Pair on warm session: %v", err)
	}
	if out, err := warm.Render(1); err != nil || out == "" {
		t.Fatalf("Render on warm session: %q, %v", out, err)
	}
	if query, err := warm.SQL(2); err != nil || query == "" {
		t.Fatalf("SQL on warm session: %q, %v", query, err)
	}
}

// TestPartialAlphaCachedSessionRefines covers the α < 1 warm path: the
// cached rough matrix still needs the generator for refinement, and the
// refined session must keep accepting feedback.
func TestPartialAlphaCachedSessionRefines(t *testing.T) {
	table := cacheTestTable()
	cache := viewseeker.NewCache(0)
	opts := viewseeker.Options{K: 5, Alpha: 0.3, Cache: cache}
	if _, err := viewseeker.New(table, cacheTestQuery, opts); err != nil {
		t.Fatal(err)
	}
	warm, err := viewseeker.New(table, cacheTestQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit() {
		t.Fatal("expected a cache hit for the α-sampled configuration")
	}
	driveSession(t, warm)
	if len(warm.TopK()) == 0 {
		t.Fatal("warm α-sampled session produced no recommendations")
	}
}

// TestCorruptedDiskCacheFallsBackToCompute corrupts every snapshot behind
// a disk-backed cache and verifies the facade recomputes instead of
// failing the session.
func TestCorruptedDiskCacheFallsBackToCompute(t *testing.T) {
	dir := t.TempDir()
	table := cacheTestTable()
	cache, err := viewseeker.OpenCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := viewseeker.Options{K: 5, Cache: cache}
	if _, err := viewseeker.New(table, cacheTestQuery, opts); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.vscache"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no snapshots written: %v, %v", entries, err)
	}
	for _, path := range entries {
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Fresh cache over the corrupted directory = restart after disk rot.
	cache2, err := viewseeker.OpenCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := viewseeker.New(table, cacheTestQuery, viewseeker.Options{K: 5, Cache: cache2})
	if err != nil {
		t.Fatalf("session failed on corrupted cache: %v", err)
	}
	if s.CacheHit() {
		t.Fatal("corrupted snapshot served as a hit")
	}
	driveSession(t, s)
}

// TestDiskCacheWarmsAcrossRestart is the durability half of the tentpole:
// a second process (fresh cache over the same directory) skips the offline
// pass and recommends identically.
func TestDiskCacheWarmsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	table := cacheTestTable()
	cache1, err := viewseeker.OpenCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, err := viewseeker.New(table, cacheTestQuery, viewseeker.Options{K: 5, Cache: cache1})
	if err != nil {
		t.Fatal(err)
	}
	cache2, err := viewseeker.OpenCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, err := viewseeker.New(table, cacheTestQuery, viewseeker.Options{K: 5, Cache: cache2})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit() {
		t.Fatal("restarted cache did not warm from disk")
	}
	driveSession(t, first)
	driveSession(t, second)
	sessionsAgree(t, first, second, "across restart")
}
