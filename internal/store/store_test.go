package store

import (
	"os"
	"path/filepath"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

func testTable(t *testing.T, seed int64) *dataset.Table {
	t.Helper()
	return dataset.GenerateDIAB(dataset.DIABConfig{Rows: 500, Seed: seed})
}

func TestHashTableDeterministic(t *testing.T) {
	a, b := testTable(t, 7), testTable(t, 7)
	if HashTable(a) != HashTable(b) {
		t.Fatal("identical tables hash differently")
	}
	if HashTable(a) == HashTable(testTable(t, 8)) {
		t.Fatal("different tables share a hash")
	}
}

func TestHashTableIgnoresName(t *testing.T) {
	a, b := testTable(t, 7), testTable(t, 7)
	b.Name = "renamed"
	if HashTable(a) != HashTable(b) {
		t.Fatal("renaming a table changed its content hash")
	}
}

func TestHashTableSeesCellChanges(t *testing.T) {
	a, b := testTable(t, 7), testTable(t, 7)
	for _, c := range b.Cols {
		if len(c.Ints) > 0 {
			c.Ints[len(c.Ints)/2]++
			break
		}
	}
	if HashTable(a) == HashTable(b) {
		t.Fatal("single-cell change not reflected in hash")
	}
}

func baseKey() Key {
	return Key{
		RefHash: "r", Query: "q", Alpha: 1,
		Features: []string{"KL", "EMD"}, Aggs: []string{"COUNT"},
		BinCounts: []int{4}, EqualDepth: false,
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := baseKey().Fingerprint()
	mutations := map[string]Key{}
	k := baseKey()
	k.RefHash = "r2"
	mutations["ref hash"] = k
	k = baseKey()
	k.Query = "q2"
	mutations["query"] = k
	k = baseKey()
	k.Alpha = 0.5
	mutations["alpha"] = k
	k = baseKey()
	k.Features = []string{"KL"}
	mutations["features"] = k
	k = baseKey()
	k.Features = []string{"EMD", "KL"}
	mutations["feature order"] = k
	k = baseKey()
	k.Aggs = []string{"SUM"}
	mutations["aggs"] = k
	k = baseKey()
	k.BinCounts = []int{3, 4}
	mutations["bin counts"] = k
	k = baseKey()
	k.EqualDepth = true
	mutations["equal depth"] = k
	for name, mk := range mutations {
		if mk.Fingerprint() == base {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
	// Field aliasing: moving a string across field boundaries must not
	// produce the same digest.
	a := Key{RefHash: "ab", Query: "c"}
	b := Key{RefHash: "a", Query: "bc"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("adjacent fields alias in the fingerprint")
	}
}

// TestFingerprintGolden pins the query-addressed encoding, so existing
// cache directories stay warm: these digests were written by the encoder
// that still had a target-contents slot, for keys that left it empty.
func TestFingerprintGolden(t *testing.T) {
	query := "SELECT * FROM diab WHERE age_group = '[80-90)'"
	for _, tc := range []struct {
		key  Key
		want string
	}{
		{Key{RefHash: "r", Query: query, Alpha: 1, Features: []string{"KL", "EMD"},
			Aggs: []string{"COUNT"}, BinCounts: []int{4}},
			"258c221caffed8939a72643c733f102a79c3bac3fc13a8e9b88e7a99e1146727"},
		{Key{RefHash: "r", Query: query, Alpha: 0.3, Features: []string{"KL", "EMD"},
			Aggs: []string{"COUNT"}, BinCounts: []int{3, 4}, EqualDepth: true},
			"fcae3069f648e38823e3d6bd09f682c95720510a89151b10d6af92a0a19a10ab"},
	} {
		if got := tc.key.Fingerprint(); got != tc.want {
			t.Errorf("%+v fingerprints as %s, want %s", tc.key, got, tc.want)
		}
	}
}

func TestFingerprintNormalisesExactAlpha(t *testing.T) {
	exact := baseKey()
	for _, alpha := range []float64{0, 1, -3, 2.5} {
		k := baseKey()
		k.Alpha = alpha
		if k.Fingerprint() != exact.Fingerprint() {
			t.Errorf("alpha=%g fingerprints differently from the exact entry", alpha)
		}
	}
}

// testTarget is a small target subset for versions built by hand.
var testTarget = dataset.GenerateDIAB(dataset.DIABConfig{Rows: 6, Seed: 1})

func testResult(n int) *OfflineResult {
	res := &OfflineResult{Names: []string{"F1", "F2"}, target: testTarget}
	for i := 0; i < n; i++ {
		res.Specs = append(res.Specs, view.Spec{Dimension: "d", Measure: "m", Agg: "COUNT", Bins: i})
		res.Rows = append(res.Rows, []float64{float64(i), float64(i) * 2})
		res.Exact = append(res.Exact, true)
	}
	return res
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	for _, fp := range []string{"a", "b", "c"} {
		if err := c.Put(fp, testResult(3)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get("a"); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("newest entry missing")
	}
	// Touching "b" makes it most recent; inserting "d" must evict "c".
	if _, ok := c.Get("b"); !ok {
		t.Fatal("entry b missing")
	}
	if err := c.Put("d", testResult(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("c"); ok {
		t.Error("recency not updated by Get: c should have been evicted before b")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("recently used entry b evicted")
	}
}

func TestCacheRejectsMalformedResult(t *testing.T) {
	c := NewCache(4)
	bad := testResult(3)
	bad.Rows = bad.Rows[:2]
	noTarget := testResult(3)
	noTarget.target = nil
	for name, res := range map[string]*OfflineResult{"shape-mismatched": bad, "target-less": noTarget} {
		if err := c.Put("fp", res); err == nil {
			t.Fatalf("Put accepted a %s result", name)
		}
		if _, ok := c.Get("fp"); ok {
			t.Fatalf("%s result was stored", name)
		}
	}
}

func TestDiskSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := testResult(5)
	want.Exact[3] = false
	if err := c1.Put("fp1", want); err != nil {
		t.Fatal(err)
	}
	// A fresh cache over the same directory simulates a process restart:
	// the entry must come back from disk, bit-identical.
	c2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("fp1")
	if !ok {
		t.Fatal("entry not reloaded from disk")
	}
	if len(got.Specs) != 5 || got.Specs[2] != want.Specs[2] {
		t.Fatalf("specs corrupted: %+v", got.Specs)
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d feature %d: %v != %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
	if got.Exact[3] || !got.Exact[0] {
		t.Fatalf("exact flags corrupted: %v", got.Exact)
	}
	if got.TargetTable().NumRows() != testTarget.NumRows() {
		t.Fatalf("target has %d rows, want %d", got.TargetTable().NumRows(), testTarget.NumRows())
	}
}

func TestCorruptedSnapshotIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("fp1", testResult(3)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fp1.vscache")
	if err := os.WriteFile(path, []byte("not a gob snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("fp1"); ok {
		t.Fatal("corrupted snapshot served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupted snapshot not quarantined")
	}
	// The slot is reusable: a recompute repopulates it.
	if err := c2.Put("fp1", testResult(3)); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get("fp1"); !ok {
		t.Fatal("repopulated snapshot not readable")
	}
}

func TestSnapshotFingerprintMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("fp1", testResult(3)); err != nil {
		t.Fatal(err)
	}
	// A snapshot copied under another fingerprint's name must not serve
	// that fingerprint's reads.
	data, err := os.ReadFile(filepath.Join(dir, "fp1.vscache"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fp2.vscache"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("fp2"); ok {
		t.Fatal("cross-named snapshot served as a hit")
	}
}

func TestCacheStats(t *testing.T) {
	c := NewCache(1)
	c.Put("a", testResult(2))
	c.Get("a")
	c.Get("missing")
	c.Put("b", testResult(2)) // evicts a
	hits, misses, evictions := c.Stats()
	if hits != 1 || misses != 1 || evictions != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", hits, misses, evictions)
	}
}
