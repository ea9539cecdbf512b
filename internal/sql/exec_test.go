package sql

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"viewseeker/internal/dataset"
)

// salesCatalog builds a small catalog with a sales table:
//
//	region  product  qty    price
//	east    apple    10     1.0
//	east    banana   5      0.5
//	west    apple    7      1.1
//	west    banana   NULL   0.6
//	west    cherry   3      3.0
//	east    apple    2      1.2
func salesCatalog(t *testing.T) *Catalog {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "region", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "product", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "qty", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "price", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	tab := dataset.NewTable("sales", schema)
	rows := []struct {
		region, product string
		qty             dataset.Value
		price           float64
	}{
		{"east", "apple", dataset.Int(10), 1.0},
		{"east", "banana", dataset.Int(5), 0.5},
		{"west", "apple", dataset.Int(7), 1.1},
		{"west", "banana", dataset.Null, 0.6},
		{"west", "cherry", dataset.Int(3), 3.0},
		{"east", "apple", dataset.Int(2), 1.2},
	}
	for _, r := range rows {
		tab.MustAppendRow(dataset.StringVal(r.region), dataset.StringVal(r.product), r.qty, dataset.Float(r.price))
	}
	c := NewCatalog()
	c.Register(tab)
	return c
}

func q(t *testing.T, c *Catalog, query string) *dataset.Table {
	t.Helper()
	res, err := c.Query(query)
	if err != nil {
		t.Fatalf("Query(%q): %v", query, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT * FROM sales")
	if res.NumRows() != 6 || res.Schema.Len() != 4 {
		t.Errorf("rows=%d cols=%d", res.NumRows(), res.Schema.Len())
	}
	// Star keeps roles.
	if def, _ := res.Schema.Def("region"); def.Role != dataset.RoleDimension {
		t.Error("star should preserve roles")
	}
}

func TestWhereFilters(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT product FROM sales WHERE region = 'east' AND qty > 3")
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows())
	}
}

func TestWhereNullIsNotTrue(t *testing.T) {
	c := salesCatalog(t)
	// qty > 3 is NULL for the NULL qty row: excluded.
	res := q(t, c, "SELECT * FROM sales WHERE qty > 0")
	if res.NumRows() != 5 {
		t.Errorf("rows = %d, want 5 (NULL row excluded)", res.NumRows())
	}
	res = q(t, c, "SELECT * FROM sales WHERE qty IS NULL")
	if res.NumRows() != 1 {
		t.Errorf("IS NULL rows = %d, want 1", res.NumRows())
	}
}

func TestGroupByAggregates(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, `SELECT region, COUNT(*) AS n, SUM(qty) AS total, AVG(price) AS avgp,
		MIN(qty) AS lo, MAX(qty) AS hi FROM sales GROUP BY region ORDER BY region`)
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	// east: 3 rows, qty 10+5+2=17, min 2 max 10.
	if res.Column("n").Ints[0] != 3 || res.Column("total").Ints[0] != 17 {
		t.Errorf("east aggregates wrong: n=%d total=%d", res.Column("n").Ints[0], res.Column("total").Ints[0])
	}
	if res.Column("lo").Ints[0] != 2 || res.Column("hi").Ints[0] != 10 {
		t.Errorf("east min/max wrong")
	}
	// west: COUNT(*)=3 but SUM(qty) skips the NULL: 7+3=10.
	if res.Column("n").Ints[1] != 3 || res.Column("total").Ints[1] != 10 {
		t.Errorf("west aggregates wrong: n=%d total=%d", res.Column("n").Ints[1], res.Column("total").Ints[1])
	}
	wantAvg := (1.1 + 0.6 + 3.0) / 3
	if math.Abs(res.Column("avgp").Floats[1]-wantAvg) > 1e-12 {
		t.Errorf("west avg price = %v, want %v", res.Column("avgp").Floats[1], wantAvg)
	}
}

func TestCountColumnSkipsNulls(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT COUNT(qty) AS n, COUNT(*) AS all_rows FROM sales")
	if res.Column("n").Ints[0] != 5 || res.Column("all_rows").Ints[0] != 6 {
		t.Errorf("COUNT(qty)=%d COUNT(*)=%d", res.Column("n").Ints[0], res.Column("all_rows").Ints[0])
	}
}

func TestGlobalAggregateOnEmptyMatch(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT COUNT(*) AS n, SUM(qty) AS s FROM sales WHERE region = 'north'")
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1 global group", res.NumRows())
	}
	if res.Column("n").Ints[0] != 0 {
		t.Errorf("count = %d, want 0", res.Column("n").Ints[0])
	}
	if !res.Column("s").IsNull(0) {
		t.Error("SUM over empty set should be NULL")
	}
}

func TestHaving(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT product, COUNT(*) AS n FROM sales GROUP BY product HAVING COUNT(*) >= 2 ORDER BY product")
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (apple, banana)", res.NumRows())
	}
	if res.Column("product").Strs[0] != "apple" || res.Column("product").Strs[1] != "banana" {
		t.Errorf("products = %v", res.Column("product").Strs)
	}
}

func TestAggregateExpression(t *testing.T) {
	c := salesCatalog(t)
	// Expressions over aggregates, and aggregates over expressions.
	res := q(t, c, "SELECT SUM(qty * 2) AS d, SUM(qty) * 2 AS e, SUM(price * price) AS sq FROM sales WHERE qty IS NOT NULL")
	if res.Column("d").Ints[0] != 54 || res.Column("e").Ints[0] != 54 {
		t.Errorf("doubled sums: d=%v e=%v", res.Column("d").Ints[0], res.Column("e").Ints[0])
	}
	want := 1.0 + 0.25 + 1.21 + 9.0 + 1.44
	if math.Abs(res.Column("sq").Floats[0]-want) > 1e-9 {
		t.Errorf("sum of squares = %v, want %v", res.Column("sq").Floats[0], want)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT product, price FROM sales ORDER BY price DESC LIMIT 2")
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Column("product").Strs[0] != "cherry" {
		t.Errorf("top product = %s", res.Column("product").Strs[0])
	}
	// Positional ORDER BY.
	res = q(t, c, "SELECT product, price FROM sales ORDER BY 2 LIMIT 1")
	if res.Column("product").Strs[0] != "banana" {
		t.Errorf("cheapest = %s", res.Column("product").Strs[0])
	}
}

func TestOrderByStability(t *testing.T) {
	c := salesCatalog(t)
	// Rows with equal keys keep their scan order (stable sort).
	res := q(t, c, "SELECT product, region FROM sales ORDER BY region")
	if res.Column("product").Strs[0] != "apple" || res.Column("product").Strs[2] != "apple" {
		t.Errorf("east block order changed: %v", res.Column("product").Strs)
	}
}

func TestDistinct(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT DISTINCT region FROM sales ORDER BY region")
	if res.NumRows() != 2 {
		t.Fatalf("distinct rows = %d", res.NumRows())
	}
	res = q(t, c, "SELECT DISTINCT region, product FROM sales")
	if res.NumRows() != 5 {
		t.Errorf("distinct pairs = %d, want 5", res.NumRows())
	}
}

func TestTableLessSelect(t *testing.T) {
	c := NewCatalog()
	res := q(t, c, "SELECT 1 + 2 AS three, UPPER('ok') AS s")
	if res.Column("three").Ints[0] != 3 || res.Column("s").Strs[0] != "OK" {
		t.Errorf("table-less select wrong: %v %v", res.Row(0), res.Schema.Columns)
	}
}

func TestScalarFunctions(t *testing.T) {
	c := NewCatalog()
	res := q(t, c, "SELECT ABS(-2), SQRT(9), FLOOR(1.7), CEIL(1.2), ROUND(2.5), LENGTH('abc'), LOWER('AbC'), COALESCE(NULL, 5)")
	row := res.Row(0)
	wants := []string{"2", "3", "1", "2", "3", "3", "abc", "5"}
	for i, w := range wants {
		if row[i].String() != w {
			t.Errorf("func result %d = %s, want %s", i, row[i], w)
		}
	}
}

func TestWidthBucket(t *testing.T) {
	c := NewCatalog()
	cases := []struct {
		expr string
		want int64
	}{
		{"WIDTH_BUCKET(0.0, 0, 1, 4)", 1},
		{"WIDTH_BUCKET(0.24, 0, 1, 4)", 1},
		{"WIDTH_BUCKET(0.25, 0, 1, 4)", 2},
		{"WIDTH_BUCKET(0.99, 0, 1, 4)", 4},
		{"WIDTH_BUCKET(1.0, 0, 1, 4)", 5},
		{"WIDTH_BUCKET(-0.1, 0, 1, 4)", 0},
	}
	for _, cse := range cases {
		res := q(t, c, "SELECT "+cse.expr+" AS b")
		if got := res.Column("b").Ints[0]; got != cse.want {
			t.Errorf("%s = %d, want %d", cse.expr, got, cse.want)
		}
	}
	if _, err := c.Query("SELECT WIDTH_BUCKET(1, 1, 0, 4)"); err == nil {
		t.Error("expected error for hi <= lo")
	}
}

func TestGroupByExpression(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT WIDTH_BUCKET(price, 0, 4, 2) AS bin, COUNT(*) AS n FROM sales GROUP BY WIDTH_BUCKET(price, 0, 4, 2) ORDER BY bin")
	if res.NumRows() != 2 {
		t.Fatalf("bins = %d", res.NumRows())
	}
	// Prices 1.0, 0.5, 1.1, 0.6, 1.2 are in [0,2) = bin 1; 3.0 in bin 2.
	if res.Column("n").Ints[0] != 5 || res.Column("n").Ints[1] != 1 {
		t.Errorf("bin counts = %v", res.Column("n").Ints)
	}
}

func TestInBetweenLike(t *testing.T) {
	c := salesCatalog(t)
	if got := q(t, c, "SELECT * FROM sales WHERE product IN ('apple', 'cherry')").NumRows(); got != 4 {
		t.Errorf("IN rows = %d", got)
	}
	if got := q(t, c, "SELECT * FROM sales WHERE product NOT IN ('apple', 'cherry')").NumRows(); got != 2 {
		t.Errorf("NOT IN rows = %d", got)
	}
	if got := q(t, c, "SELECT * FROM sales WHERE price BETWEEN 0.5 AND 1.1").NumRows(); got != 4 {
		t.Errorf("BETWEEN rows = %d", got)
	}
	if got := q(t, c, "SELECT * FROM sales WHERE product LIKE '%an%'").NumRows(); got != 2 {
		t.Errorf("LIKE rows = %d", got)
	}
	if got := q(t, c, "SELECT * FROM sales WHERE product LIKE '_pple'").NumRows(); got != 3 {
		t.Errorf("LIKE _ rows = %d", got)
	}
}

func TestNullPropagation(t *testing.T) {
	c := salesCatalog(t)
	// qty + 1 is NULL for the null row; NULL = NULL is NULL (excluded).
	if got := q(t, c, "SELECT * FROM sales WHERE qty + 1 = qty + 1").NumRows(); got != 5 {
		t.Errorf("null arithmetic rows = %d, want 5", got)
	}
	// x IN (..., NULL) with no match is NULL, not false.
	if got := q(t, c, "SELECT * FROM sales WHERE qty NOT IN (999, NULL)").NumRows(); got != 0 {
		t.Errorf("NOT IN with NULL rows = %d, want 0", got)
	}
}

func TestExecErrors(t *testing.T) {
	c := salesCatalog(t)
	bad := []string{
		"SELECT nope FROM sales",
		"SELECT * FROM nope",
		"SELECT region FROM sales WHERE SUM(qty) > 1",
		"SELECT * FROM sales GROUP BY region",
		"SELECT qty FROM sales GROUP BY region",
		"SELECT region FROM sales GROUP BY SUM(qty)",
		"SELECT SUM(*) FROM sales",
		"SELECT SUM(MAX(qty)) FROM sales",
		"SELECT NOSUCHFUNC(qty) FROM sales",
		"SELECT region FROM sales ORDER BY 99",
		"SELECT 1/0",
		"SELECT region = qty FROM sales",
	}
	for _, query := range bad {
		if _, err := c.Query(query); err == nil {
			t.Errorf("Query(%q) should fail", query)
		}
	}
}

func TestDuplicateOutputNames(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT region, region FROM sales LIMIT 1")
	if res.Schema.Columns[0].Name == res.Schema.Columns[1].Name {
		t.Errorf("duplicate names not disambiguated: %v", res.Schema.Columns)
	}
}

func TestCatalogNames(t *testing.T) {
	c := salesCatalog(t)
	c.Register(dataset.NewTable("aaa", dataset.MustSchema(dataset.ColumnDef{Name: "x", Kind: dataset.KindInt})))
	names := c.Names()
	if len(names) != 2 || names[0] != "aaa" || names[1] != "sales" {
		t.Errorf("names = %v", names)
	}
	if c.Table("sales") == nil || c.Table("ghost") != nil {
		t.Error("Table lookup wrong")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "a%b%c", true},
		{"abc", "%%%", true},
		{"abc", "_b_", true},
		{"abc", "__", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestMinMaxOnStrings(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT MIN(product) AS lo, MAX(product) AS hi FROM sales")
	if res.Column("lo").Strs[0] != "apple" || res.Column("hi").Strs[0] != "cherry" {
		t.Errorf("string min/max = %v %v", res.Column("lo").Strs[0], res.Column("hi").Strs[0])
	}
}

func TestAvgIsFloatEvenForInts(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, "SELECT AVG(qty) AS a FROM sales")
	def, _ := res.Schema.Def("a")
	if def.Kind != dataset.KindFloat {
		t.Errorf("AVG kind = %v, want float", def.Kind)
	}
	want := 27.0 / 5
	if math.Abs(res.Column("a").Floats[0]-want) > 1e-12 {
		t.Errorf("avg = %v, want %v", res.Column("a").Floats[0], want)
	}
}

func TestVarianceAndStddev(t *testing.T) {
	c := salesCatalog(t)
	// qty values (non-null): 10, 5, 7, 3, 2 → mean 5.4,
	// population variance = (21.16+0.16+2.56+5.76+11.56)/5 = 8.24.
	res := q(t, c, "SELECT VARIANCE(qty) AS v, STDDEV(qty) AS s FROM sales")
	v, _ := res.Column("v").Float(0)
	s, _ := res.Column("s").Float(0)
	if math.Abs(v-8.24) > 1e-9 {
		t.Errorf("variance = %v, want 8.24", v)
	}
	if math.Abs(s-math.Sqrt(8.24)) > 1e-9 {
		t.Errorf("stddev = %v", s)
	}
	// Constant column: zero variance.
	res = q(t, c, "SELECT VARIANCE(qty) AS v FROM sales WHERE qty = 7")
	v, _ = res.Column("v").Float(0)
	if v != 0 {
		t.Errorf("constant variance = %v", v)
	}
	// Empty group: NULL.
	res = q(t, c, "SELECT STDDEV(qty) AS s FROM sales WHERE region = 'north'")
	if !res.Column("s").IsNull(0) {
		t.Error("stddev over empty set should be NULL")
	}
	// Grouped.
	res = q(t, c, "SELECT region, STDDEV(price) AS s FROM sales GROUP BY region ORDER BY region")
	if res.NumRows() != 2 {
		t.Fatalf("groups = %d", res.NumRows())
	}
	east, _ := res.Column("s").Float(0)
	if east <= 0 {
		t.Errorf("east price stddev = %v, want > 0", east)
	}
}

func TestCaseExpression(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, `SELECT product,
		CASE WHEN price >= 2 THEN 'pricey' WHEN price >= 1 THEN 'fair' ELSE 'cheap' END AS band
		FROM sales ORDER BY product, band`)
	if res.NumRows() != 6 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	bands := map[string]int{}
	for i := 0; i < res.NumRows(); i++ {
		bands[res.Column("band").Strs[i]]++
	}
	if bands["pricey"] != 1 || bands["fair"] != 3 || bands["cheap"] != 2 {
		t.Errorf("bands = %v", bands)
	}
}

func TestCaseNoElseIsNull(t *testing.T) {
	c := NewCatalog()
	res := q(t, c, "SELECT CASE WHEN FALSE THEN 1 END AS v")
	if !res.Column("v").IsNull(0) {
		t.Error("CASE with no matching arm and no ELSE must be NULL")
	}
}

func TestCaseInsideAggregate(t *testing.T) {
	c := salesCatalog(t)
	// Conditional counting: the classic CASE-in-SUM idiom.
	res := q(t, c, "SELECT SUM(CASE WHEN region = 'east' THEN 1 ELSE 0 END) AS east_rows FROM sales")
	if res.Column("east_rows").Ints[0] != 3 {
		t.Errorf("east_rows = %d, want 3", res.Column("east_rows").Ints[0])
	}
}

func TestCaseWithAggregateArms(t *testing.T) {
	c := salesCatalog(t)
	res := q(t, c, `SELECT region,
		CASE WHEN COUNT(*) >= 3 THEN 'big' ELSE 'small' END AS size_band
		FROM sales GROUP BY region ORDER BY region`)
	if res.Column("size_band").Strs[0] != "big" || res.Column("size_band").Strs[1] != "big" {
		t.Errorf("bands = %v", res.Column("size_band").Strs)
	}
}

func TestCaseParseErrors(t *testing.T) {
	c := salesCatalog(t)
	for _, query := range []string{
		"SELECT CASE END FROM sales",
		"SELECT CASE WHEN price THEN 1 END FROM sales", // non-bool condition
		"SELECT CASE WHEN price > 1 THEN 1 FROM sales", // missing END
	} {
		if _, err := c.Query(query); err == nil {
			t.Errorf("Query(%q) should fail", query)
		}
	}
}

func TestCaseStringRoundTrip(t *testing.T) {
	s := mustParse(t, "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t")
	s2 := mustParse(t, s.String())
	if s.String() != s2.String() {
		t.Errorf("CASE canonical form unstable: %s", s.String())
	}
}

// explainDoc runs an EXPLAIN query and decodes the one-row JSON plan.
func explainDoc(t *testing.T, c *Catalog, query string) *plan {
	t.Helper()
	res := q(t, c, query)
	if res.NumRows() != 1 {
		t.Fatalf("EXPLAIN rows = %d, want 1", res.NumRows())
	}
	var p plan
	if err := json.Unmarshal([]byte(res.Column("plan").Strs[0]), &p); err != nil {
		t.Fatalf("EXPLAIN output is not JSON: %v", err)
	}
	return &p
}

// ops flattens the plan's operator chain outermost-first.
func ops(p *plan) []string {
	var out []string
	for n := p.Root; n != nil; n = n.Input {
		out = append(out, n.Op)
	}
	return out
}

func TestExplain(t *testing.T) {
	c := salesCatalog(t)
	p := explainDoc(t, c, "EXPLAIN SELECT region, COUNT(*) AS n FROM sales WHERE qty > 1 GROUP BY region HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3")
	if p.Version != planVersion {
		t.Errorf("version = %d, want %d", p.Version, planVersion)
	}
	got := ops(p)
	want := []string{"limit", "sort", "project", "filter", "aggregate", "filter", "scan"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("ops = %v, want %v", got, want)
	}
	// Spot-check operator payloads down the chain.
	limit := p.Root
	if limit.Count == nil || *limit.Count != 3 {
		t.Errorf("limit count = %v", limit.Count)
	}
	sortN := limit.Input
	if len(sortN.Keys) != 1 || sortN.Keys[0].Expr != "n" || !sortN.Keys[0].Desc {
		t.Errorf("sort keys = %+v", sortN.Keys)
	}
	project := sortN.Input
	if strings.Join(project.Columns, ",") != "region,n" {
		t.Errorf("project columns = %v", project.Columns)
	}
	having := project.Input
	if having.Phase != "having" || having.Predicate != "(COUNT(*) > 1)" {
		t.Errorf("having = %+v", having)
	}
	agg := having.Input
	if agg.Strategy != "fused-hash" || strings.Join(agg.GroupBy, ",") != "region" {
		t.Errorf("aggregate = %+v", agg)
	}
	if len(agg.Aggregates) != 1 || agg.Aggregates[0].Call != "COUNT(*)" ||
		agg.Aggregates[0].Fn != "COUNT" || !agg.Aggregates[0].Star || !agg.Aggregates[0].Columnar {
		t.Errorf("aggregates = %+v", agg.Aggregates)
	}
	filter := agg.Input
	if filter.Predicate != "(qty > 1)" || filter.Phase != "" {
		t.Errorf("filter = %+v", filter)
	}
	if filter.Input.Op != "scan" || filter.Input.Table != "sales" {
		t.Errorf("scan = %+v", filter.Input)
	}

	// Columnar eligibility: numeric column yes, string column no, MIN no.
	p = explainDoc(t, c, "EXPLAIN SELECT SUM(qty), SUM(region), MIN(price) FROM sales")
	agg = p.Root.Input // project -> aggregate
	if agg.Strategy != "fused-global" {
		t.Errorf("strategy = %q", agg.Strategy)
	}
	byCall := make(map[string]planAggregate)
	for _, a := range agg.Aggregates {
		byCall[a.Call] = a
	}
	if !byCall["SUM(qty)"].Columnar {
		t.Error("SUM(qty) should be columnar")
	}
	if byCall["SUM(region)"].Columnar {
		t.Error("SUM(region) should not be columnar")
	}
	if byCall["MIN(price)"].Columnar {
		t.Error("MIN(price) should not be columnar")
	}

	// Table-less, distinct.
	p = explainDoc(t, c, "explain SELECT DISTINCT 1 + 1")
	got = ops(p)
	want = []string{"distinct", "project", "values"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("ops = %v, want %v", got, want)
	}
	// EXPLAIN is lenient about unregistered tables: plan shape only.
	p = explainDoc(t, c, "EXPLAIN SELECT COUNT(x) FROM nosuch")
	if p.Root.Input.Aggregates[0].Columnar {
		t.Error("unknown table cannot promise a columnar path")
	}
	// EXPLAIN of an invalid statement fails like parsing it would.
	if _, err := c.Query("EXPLAIN SELECT FROM"); err == nil {
		t.Error("explain of bad statement should fail")
	}
	// EXPLAIN as a column name is not the keyword.
	if _, err := c.Query("EXPLAINx"); err == nil {
		t.Error("non-statement should fail")
	}
}

func TestMoreScalarFunctions(t *testing.T) {
	c := NewCatalog()
	res := q(t, c, "SELECT EXP(0), POWER(2, 10), CONCAT('a', NULL, 'b', 1), SUBSTR('hello', 2, 3), LN(1)")
	row := res.Row(0)
	wants := []string{"1", "1024", "ab1", "ell", "0"}
	for i, w := range wants {
		if row[i].String() != w {
			t.Errorf("func %d = %s, want %s", i, row[i], w)
		}
	}
	// SUBSTR edge cases.
	res = q(t, c, "SELECT SUBSTR('abc', 0, 2) AS a, SUBSTR('abc', 9, 2) AS b, SUBSTR('abc', 2, 0) AS z")
	if res.Column("a").Strs[0] != "ab" || res.Column("b").Strs[0] != "" || res.Column("z").Strs[0] != "" {
		t.Errorf("substr edges = %v", res.Row(0))
	}
	if _, err := c.Query("SELECT POWER('a', 2)"); err == nil {
		t.Error("POWER over string should fail")
	}
}
