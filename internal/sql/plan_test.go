package sql

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"viewseeker/internal/dataset"
)

// intTable builds a one-column table named t with Int column x.
func intTable(t *testing.T, vals ...dataset.Value) *dataset.Table {
	t.Helper()
	schema := dataset.MustSchema(dataset.ColumnDef{Name: "x", Kind: dataset.KindInt, Role: dataset.RoleMeasure})
	tab := dataset.NewTable("t", schema)
	for _, v := range vals {
		tab.MustAppendRow(v)
	}
	return tab
}

// TestSumIntExact pins the integer-exactness bug: float64 summation
// rounds 2^53+1 to 2^53, so SUM over {2^53,1,1,1} used to come back as
// 9007199254740996 instead of 9007199254740995.
func TestSumIntExact(t *testing.T) {
	tab := intTable(t, dataset.Int(1<<53), dataset.Int(1), dataset.Int(1), dataset.Int(1))
	stmt := mustParse(t, "SELECT SUM(x) FROM t")
	for name, exec := range map[string]func(*SelectStmt, *dataset.Table) (*dataset.Table, error){
		"planned": execute, "interpreted": ExecuteInterpreted,
	} {
		res, err := exec(stmt, tab)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.Row(0)[0]
		if got.Kind != dataset.KindInt || got.I != 9007199254740995 {
			t.Errorf("%s: SUM = %s (kind %v), want 9007199254740995", name, got, got.Kind)
		}
	}
}

// TestSumIntOverflow: an all-int SUM that exceeds int64 reports an error
// instead of silently wrapping.
func TestSumIntOverflow(t *testing.T) {
	tab := intTable(t, dataset.Int(math.MaxInt64), dataset.Int(1))
	stmt := mustParse(t, "SELECT SUM(x) FROM t")
	if _, err := execute(stmt, tab); err == nil {
		t.Error("planned: overflowing SUM should fail")
	}
	if _, err := ExecuteInterpreted(stmt, tab); err == nil {
		t.Error("interpreted: overflowing SUM should fail")
	}
	// Negative direction too.
	tab = intTable(t, dataset.Int(math.MinInt64), dataset.Int(-1))
	if _, err := execute(stmt, tab); err == nil {
		t.Error("negative overflowing SUM should fail")
	}
}

// TestStddevLargeMean pins the catastrophic-cancellation bug: the raw
// Σv²−(Σv)²/n formulation collapsed STDDEV over {1e9, 1e9+1, 1e9+2} to 0.
// Population stddev of a 3-term arithmetic progression with step 1 is
// sqrt(2/3) ≈ 0.8165.
func TestStddevLargeMean(t *testing.T) {
	schema := dataset.MustSchema(dataset.ColumnDef{Name: "x", Kind: dataset.KindFloat, Role: dataset.RoleMeasure})
	tab := dataset.NewTable("t", schema)
	for _, v := range []float64{1e9, 1e9 + 1, 1e9 + 2} {
		tab.MustAppendRow(dataset.Float(v))
	}
	want := math.Sqrt(2.0 / 3.0)
	for _, query := range []string{"SELECT STDDEV(x) FROM t", "SELECT VARIANCE(x) FROM t"} {
		stmt := mustParse(t, query)
		res, err := execute(stmt, tab)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Row(0)[0].F
		w := want
		if strings.Contains(query, "VARIANCE") {
			w = 2.0 / 3.0
		}
		if math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", query, got, w)
		}
	}
}

// TestInterpretedNilTableWithFrom keeps the nil-table guard on the
// interpreter too (execute is covered in coverage_test.go).
func TestInterpretedNilTableWithFrom(t *testing.T) {
	stmt := mustParse(t, "SELECT COUNT(*) FROM t")
	if _, err := ExecuteInterpreted(stmt, nil); err == nil {
		t.Error("interpreted: FROM without a table should fail")
	}
}

// valueEqual compares values bit-exactly (float payloads via Float64bits).
func valueEqual(a, b dataset.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// tablesEqual compares two result tables bit-exactly: schema names and
// kinds, then every cell.
func tablesEqual(a, b *dataset.Table) error {
	if a.Schema.Len() != b.Schema.Len() {
		return fmt.Errorf("column count %d vs %d", a.Schema.Len(), b.Schema.Len())
	}
	for j := 0; j < a.Schema.Len(); j++ {
		da, db := a.Schema.Columns[j], b.Schema.Columns[j]
		if da.Name != db.Name || da.Kind != db.Kind {
			return fmt.Errorf("column %d: %v vs %v", j, da, db)
		}
	}
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("row count %d vs %d", a.NumRows(), b.NumRows())
	}
	for r := 0; r < a.NumRows(); r++ {
		ra, rb := a.Row(r), b.Row(r)
		for j := range ra {
			if !valueEqual(ra[j], rb[j]) {
				return fmt.Errorf("cell (%d,%d): %s vs %s", r, j, ra[j], rb[j])
			}
		}
	}
	return nil
}

// checkEngines runs one query through both executors and requires
// bit-identical results (or that both fail).
func checkEngines(t *testing.T, tab *dataset.Table, query string) {
	t.Helper()
	stmt, err := Parse(query)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	planned, errP := execute(stmt, tab)
	interp, errI := ExecuteInterpreted(stmt, tab)
	if (errP == nil) != (errI == nil) {
		t.Fatalf("%q: planned err = %v, interpreted err = %v", query, errP, errI)
	}
	if errP != nil {
		return
	}
	if err := tablesEqual(planned, interp); err != nil {
		t.Errorf("%q: engines diverge: %v", query, err)
	}
}

// TestPlannedMatchesInterpreter drives both executors over the SQL
// coverage corpus and requires bit-identical results.
func TestPlannedMatchesInterpreter(t *testing.T) {
	tab := salesCatalog(t).Table("sales")
	corpus := []string{
		"SELECT * FROM sales",
		"SELECT region, product FROM sales WHERE price >= 1 ORDER BY region, product",
		"SELECT DISTINCT region FROM sales ORDER BY region",
		"SELECT qty + 1 AS q1, UPPER(region) FROM sales WHERE qty IS NOT NULL ORDER BY q1 DESC LIMIT 3",
		"SELECT 1 + 2 AS x",
		"SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY region",
		"SELECT region, SUM(qty), AVG(price) FROM sales GROUP BY region ORDER BY region",
		"SELECT product, VARIANCE(price), STDDEV(qty) FROM sales GROUP BY product ORDER BY product",
		"SELECT COUNT(*), COUNT(qty), COUNT(product), SUM(price) FROM sales",
		"SELECT region, MIN(price), MAX(qty) FROM sales WHERE qty > 2 GROUP BY region ORDER BY region",
		"SELECT region, COUNT(*) AS n FROM sales GROUP BY region HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 1",
		"SELECT UPPER(region) AS r, SUM(qty * price) FROM sales GROUP BY UPPER(region) ORDER BY r",
		"SELECT CASE WHEN COUNT(*) >= 3 THEN 'big' ELSE 'small' END AS band, region FROM sales GROUP BY region ORDER BY region",
		"SELECT SUM(qty) + AVG(price) FROM sales",
		"SELECT region FROM sales GROUP BY region HAVING SUM(qty) > 5 ORDER BY region",
		"SELECT COUNT(*) FROM sales WHERE region = 'nowhere'",
		"SELECT MIN(product), MAX(region) FROM sales",
		"SELECT product, AVG(qty) FROM sales WHERE region IN ('east', 'west') GROUP BY product ORDER BY product",
		"SELECT region, STDDEV(price) FROM sales GROUP BY region ORDER BY STDDEV(price) DESC",
		// Both engines must fail these the same way.
		"SELECT SUM(region) FROM sales",
		"SELECT region, COUNT(*) FROM sales GROUP BY region ORDER BY qty",
		"SELECT * FROM sales GROUP BY region",
	}
	for _, query := range corpus {
		checkEngines(t, tab, query)
	}
}

// randomAggQuery builds a random (but always parseable) aggregate query
// over the sales fixture.
func randomAggQuery(rng *rand.Rand) string {
	dims := []string{"region", "product"}
	measures := []string{"qty", "price"}
	aggs := []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "VARIANCE", "STDDEV"}
	var items []string
	dim := ""
	if rng.Intn(2) == 0 {
		dim = dims[rng.Intn(len(dims))]
		items = append(items, dim)
	}
	nAggs := 1 + rng.Intn(3)
	for i := 0; i < nAggs; i++ {
		fn := aggs[rng.Intn(len(aggs))]
		arg := measures[rng.Intn(len(measures))]
		if fn == "COUNT" && rng.Intn(2) == 0 {
			items = append(items, "COUNT(*)")
			continue
		}
		items = append(items, fmt.Sprintf("%s(%s)", fn, arg))
	}
	var sb strings.Builder
	sb.WriteString("SELECT " + strings.Join(items, ", ") + " FROM sales")
	switch rng.Intn(4) {
	case 0:
		sb.WriteString(fmt.Sprintf(" WHERE qty > %d", rng.Intn(10)))
	case 1:
		sb.WriteString(fmt.Sprintf(" WHERE price < %g", 0.5+rng.Float64()*3))
	case 2:
		sb.WriteString(" WHERE region = 'east'")
	}
	if dim != "" {
		sb.WriteString(" GROUP BY " + dim)
		if rng.Intn(3) == 0 {
			sb.WriteString(fmt.Sprintf(" HAVING COUNT(*) > %d", rng.Intn(3)))
		}
		sb.WriteString(" ORDER BY " + dim)
	}
	if rng.Intn(3) == 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", 1+rng.Intn(4)))
	}
	return sb.String()
}

// TestQuickPlannedMatchesInterpreter is the property test: for any random
// aggregate query over the fixture, the planned executor and the
// interpreter agree bit-exactly.
func TestQuickPlannedMatchesInterpreter(t *testing.T) {
	tab := salesCatalog(t).Table("sales")
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		query := randomAggQuery(rng)
		stmt, err := Parse(query)
		if err != nil {
			t.Logf("Parse(%q): %v", query, err)
			return false
		}
		planned, errP := execute(stmt, tab)
		interp, errI := ExecuteInterpreted(stmt, tab)
		if (errP == nil) != (errI == nil) {
			t.Logf("%q: planned err = %v, interpreted err = %v", query, errP, errI)
			return false
		}
		if errP != nil {
			return true
		}
		if err := tablesEqual(planned, interp); err != nil {
			t.Logf("%q: %v", query, err)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExplainGolden pins the EXPLAIN JSON document for a representative
// grouped query against a checked-in golden file. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestExplainGolden ./internal/sql/
func TestExplainGolden(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "EXPLAIN SELECT region, COUNT(*) AS n, AVG(price) AS avg_price FROM sales WHERE qty > 1 GROUP BY region HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5")
	got := res.Column("plan").Strs[0] + "\n"
	path := filepath.Join("testdata", "explain_groupby.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN JSON drifted from golden file %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
