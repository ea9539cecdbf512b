package sql

import (
	"math"
	"testing"

	"viewseeker/internal/dataset"
)

// These tests close coverage gaps the broader suites miss: arithmetic
// corner cases, unary operators, aggregate analysis over every expression
// node, and the NOT-lookahead parser path.

func TestArithmeticCornerCases(t *testing.T) {
	c := NewCatalog()
	res := q(t, c, "SELECT -(-3), -1.5, 7 % 3, 7.5 % 2, 10 / 4, 10.0 / 4, NOT TRUE, NOT FALSE")
	row := res.Row(0)
	wants := []string{"3", "-1.5", "1", "1.5", "2", "2.5", "false", "true"}
	for i, w := range wants {
		if row[i].String() != w {
			t.Errorf("expr %d = %s, want %s", i, row[i], w)
		}
	}
	// Mixed int/float arithmetic widens.
	res = q(t, c, "SELECT 1 + 2.5 AS x")
	if v, _ := res.Column("x").Float(0); v != 3.5 {
		t.Errorf("1 + 2.5 = %v", v)
	}
	// Float modulo matches math.Mod.
	res = q(t, c, "SELECT 7.5 % 2.25 AS m")
	if v, _ := res.Column("m").Float(0); math.Abs(v-math.Mod(7.5, 2.25)) > 1e-12 {
		t.Errorf("float mod = %v", v)
	}
	for _, bad := range []string{
		"SELECT 1 % 0",
		"SELECT 1.0 / 0.0",
		"SELECT 1.5 % 0",
		"SELECT -'abc'",
		"SELECT NOT 1",
		"SELECT 'a' + 1",
	} {
		if _, err := c.Query(bad); err == nil {
			t.Errorf("Query(%q) should fail", bad)
		}
	}
}

func TestNullArithmeticAndNot(t *testing.T) {
	c := salesCatalog(t)
	// NOT NULL is NULL, -NULL is NULL: neither row survives a WHERE.
	if got := q(t, c, "SELECT * FROM sales WHERE NOT (qty IS NULL AND qty IS NOT NULL) OR qty > 99999").NumRows(); got != 6 {
		t.Errorf("rows = %d", got)
	}
	res := q(t, c, "SELECT -qty AS neg FROM sales WHERE qty IS NULL")
	if !res.Column("neg").IsNull(0) {
		t.Error("-NULL should be NULL")
	}
}

func TestIsAggregateCall(t *testing.T) {
	s := mustParse(t, "SELECT SUM(a), SUM(a) + 1, b FROM t GROUP BY b")
	if !isAggregateCall(s.Items[0].Expr) {
		t.Error("SUM(a) is an aggregate call")
	}
	if isAggregateCall(s.Items[1].Expr) {
		t.Error("SUM(a)+1 is not a *direct* aggregate call")
	}
	if isAggregateCall(s.Items[2].Expr) {
		t.Error("b is not an aggregate call")
	}
}

func TestContainsAggregateEveryNode(t *testing.T) {
	cases := map[string]bool{
		"SELECT a IN (SUM(b), 2) FROM t GROUP BY a":            true,
		"SELECT a IN (1, 2) FROM t GROUP BY a":                 false,
		"SELECT a BETWEEN MIN(b) AND MAX(b) FROM t GROUP BY a": true,
		"SELECT SUM(b) IS NULL FROM t":                         true,
		"SELECT a LIKE 'x%' FROM t GROUP BY a":                 false,
		"SELECT -SUM(b) FROM t":                                true,
		"SELECT ABS(b) FROM t GROUP BY ABS(b)":                 false,
		"SELECT CASE WHEN MAX(b) > 1 THEN 1 ELSE 0 END FROM t": true,
		"SELECT CASE WHEN a > 1 THEN 1 ELSE 0 END FROM t":      false,
	}
	for query, want := range cases {
		s := mustParse(t, query)
		if got := ContainsAggregate(s.Items[0].Expr); got != want {
			t.Errorf("ContainsAggregate(%q) = %v, want %v", query, got, want)
		}
	}
}

func TestAggregatesInsideEveryPredicateNode(t *testing.T) {
	// collectAggregates must find aggregates nested in IN, BETWEEN,
	// IS NULL, LIKE and unary nodes when they appear in HAVING.
	c := salesCatalog(t)
	queries := []string{
		"SELECT region FROM sales GROUP BY region HAVING SUM(qty) IN (10, 17)",
		"SELECT region FROM sales GROUP BY region HAVING SUM(qty) BETWEEN 9 AND 20",
		"SELECT region FROM sales GROUP BY region HAVING SUM(qty) IS NOT NULL",
		"SELECT region FROM sales GROUP BY region HAVING -SUM(qty) < 0",
		"SELECT region FROM sales GROUP BY region HAVING CASE WHEN COUNT(*) > 2 THEN TRUE ELSE FALSE END",
	}
	for _, query := range queries {
		res := q(t, c, query)
		if res.NumRows() != 2 {
			t.Errorf("Query(%q) rows = %d, want 2", query, res.NumRows())
		}
	}
	// MIN/MAX over strings inside HAVING comparisons.
	res := q(t, c, "SELECT region FROM sales GROUP BY region HAVING MIN(product) = 'apple'")
	if res.NumRows() != 2 {
		t.Errorf("string MIN having rows = %d", res.NumRows())
	}
}

func TestParserNotLookaheadRestore(t *testing.T) {
	// "NOT x = 1" exercises the save/restore path: NOT is consumed, the
	// following token is not IN/BETWEEN/LIKE, so the parser backtracks.
	s := mustParse(t, "SELECT a WHERE b > 1 AND NOT c = 2")
	if s.Where == nil {
		t.Fatal("no where")
	}
	// And the canonical form is stable.
	s2 := mustParse(t, s.String())
	if s.String() != s2.String() {
		t.Errorf("unstable: %s", s.String())
	}
}

func TestBetweenKindMismatch(t *testing.T) {
	c := salesCatalog(t)
	if _, err := c.Query("SELECT * FROM sales WHERE qty BETWEEN 'a' AND 'z'"); err == nil {
		t.Error("numeric BETWEEN string bounds should fail")
	}
	if _, err := c.Query("SELECT * FROM sales WHERE product BETWEEN 1 AND 2"); err == nil {
		t.Error("string BETWEEN numeric bounds should fail")
	}
	// NULL bounds make the predicate NULL (row dropped), not an error.
	if got := q(t, c, "SELECT * FROM sales WHERE qty BETWEEN NULL AND 10").NumRows(); got != 0 {
		t.Errorf("NULL-bound BETWEEN rows = %d", got)
	}
}

func TestSelectItemQuotedAliasRoundTrip(t *testing.T) {
	s := mustParse(t, `SELECT a AS "weird name" FROM t`)
	if s.Items[0].Alias != "weird name" {
		t.Fatalf("alias = %q", s.Items[0].Alias)
	}
	s2 := mustParse(t, s.String())
	if s2.Items[0].Alias != "weird name" {
		t.Errorf("alias lost in canonical round trip: %q", s.String())
	}
}

func TestExecuteNilTableWithFrom(t *testing.T) {
	s := mustParse(t, "SELECT a FROM ghost")
	if _, err := execute(s, nil); err == nil {
		t.Error("FROM without a table should fail")
	}
}

func TestGroupValueOfDistinctKinds(t *testing.T) {
	// Grouping by an int-typed expression: keys must not collide with
	// string-typed keys of the same rendering.
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "n", Kind: dataset.KindInt},
		dataset.ColumnDef{Name: "s", Kind: dataset.KindString},
	)
	tab := dataset.NewTable("t", schema)
	tab.MustAppendRow(dataset.Int(1), dataset.StringVal("1"))
	tab.MustAppendRow(dataset.Int(1), dataset.StringVal("1"))
	c := NewCatalog()
	c.Register(tab)
	res := q(t, c, "SELECT n, s, COUNT(*) AS c FROM t GROUP BY n, s")
	if res.NumRows() != 1 || res.Column("c").Ints[0] != 2 {
		t.Errorf("grouping wrong: %d rows", res.NumRows())
	}
}
