package sql

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"viewseeker/internal/dataset"
)

// kernelTable is the differential fixture for WHERE kernels: every column
// kind, NULLs in all but j, and the float corner cases NaN, ±0 and ±Inf.
func kernelTable(rng *rand.Rand) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "i", Kind: dataset.KindInt},
		dataset.ColumnDef{Name: "j", Kind: dataset.KindInt},
		dataset.ColumnDef{Name: "f", Kind: dataset.KindFloat},
		dataset.ColumnDef{Name: "s", Kind: dataset.KindString},
		dataset.ColumnDef{Name: "b", Kind: dataset.KindBool},
	)
	tab := dataset.NewTable("k", schema)
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 0.5, 2.5, -3}
	strs := []string{"", "a", "ab", "b%", "0.5", "z"}
	maybeNull := func(v dataset.Value) dataset.Value {
		if rng.Intn(5) == 0 {
			return dataset.Null
		}
		return v
	}
	for r := 0; r < 40+rng.Intn(40); r++ {
		f := floats[rng.Intn(len(floats))]
		if rng.Intn(2) == 0 {
			f = rng.NormFloat64() * 3
		}
		tab.MustAppendRow(
			maybeNull(dataset.Int(int64(rng.Intn(7)-3))),
			dataset.Int(int64(rng.Intn(5))),
			maybeNull(dataset.Float(f)),
			maybeNull(dataset.StringVal(strs[rng.Intn(len(strs))])),
			maybeNull(dataset.Bool(rng.Intn(2) == 0)),
		)
	}
	return tab
}

// randomPredicate builds a WHERE predicate mixing kernel-eligible leaves
// with ones that need boxed evaluation (arithmetic, incomparable kinds,
// non-boolean operands), under AND/OR/NOT nesting.
func randomPredicate(rng *rand.Rand, depth int) string {
	cols := []string{"i", "j", "f", "s", "b"}
	consts := []string{"0", "1", "-3", "2.5", "0.5", "'a'", "'ab'", "'0.5'", "''", "TRUE", "FALSE", "NULL"}
	col := func() string { return cols[rng.Intn(len(cols))] }
	cnst := func() string { return consts[rng.Intn(len(consts))] }
	operand := func() string {
		if rng.Intn(3) == 0 {
			return cnst()
		}
		return col()
	}
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(3) {
		case 0:
			return "NOT " + randomPredicate(rng, depth-1)
		case 1:
			return "(" + randomPredicate(rng, depth-1) + " AND " + randomPredicate(rng, depth-1) + ")"
		default:
			return "(" + randomPredicate(rng, depth-1) + " OR " + randomPredicate(rng, depth-1) + ")"
		}
	}
	not := func() string {
		if rng.Intn(2) == 0 {
			return "NOT "
		}
		return ""
	}
	ops := []string{"=", "!=", "<>", "<", "<=", ">", ">="}
	op := " " + ops[rng.Intn(len(ops))] + " "
	switch rng.Intn(9) {
	case 0:
		return col() + op + cnst()
	case 1:
		return cnst() + op + col()
	case 2:
		return operand() + op + operand()
	case 3:
		return col() + " " + not() + "BETWEEN " + cnst() + " AND " + cnst()
	case 4:
		list := make([]string, 1+rng.Intn(3))
		for i := range list {
			list[i] = cnst()
		}
		return col() + " " + not() + "IN (" + strings.Join(list, ", ") + ")"
	case 5:
		pats := []string{"'a%'", "'%b%'", "'_'", "''", "'%'", "NULL", "1"}
		return col() + " " + not() + "LIKE " + pats[rng.Intn(len(pats))]
	case 6:
		return col() + " IS " + not() + "NULL"
	case 7:
		return operand() // a bare column or constant in boolean position
	default:
		return "(i + " + cnst() + ")" + op + operand()
	}
}

// TestQuickWhereKernelsMatchInterpreter is the differential property for
// the typed WHERE kernels: over random predicates and fixtures, the
// planned executor (kernel when compileKernel accepts, boxed otherwise)
// and the interpreter select the same rows bit-exactly and fail on the
// same statements. It also requires that a good share of the predicates
// really ran as kernels, so the property is not vacuous.
func TestQuickWhereKernelsMatchInterpreter(t *testing.T) {
	var typed, total int
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := kernelTable(rng)
		pred := randomPredicate(rng, 3)
		for _, query := range []string{
			"SELECT * FROM k WHERE " + pred,
			"SELECT s, f FROM k WHERE " + pred + " LIMIT 5",
			"SELECT COUNT(*), SUM(i), MAX(f) FROM k WHERE " + pred,
		} {
			checkEngines(t, tab, query)
		}
		total++
		if _, ok := compileKernel(mustParse(t, "SELECT * FROM k WHERE "+pred).Where, tab, false); ok {
			typed++
		}
		return !t.Failed()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	if typed*4 < total {
		t.Errorf("only %d of %d predicates ran as typed kernels", typed, total)
	}
}

// TestWhereKernelCoverage pins which predicate shapes compile to kernels
// and which stay boxed, and that both select the interpreter's rows.
func TestWhereKernelCoverage(t *testing.T) {
	tab := kernelTable(rand.New(rand.NewSource(7)))
	cases := []struct {
		pred  string
		typed bool
	}{
		{"f >= 0.5 AND f < 2.5 AND i >= -1 AND i < 3", true},
		{"0.5 <= f", true},
		{"NOT (f < 0 OR s = 'a')", true},
		{"s < 'b'", true},
		{"b", true},
		{"NOT b", true},
		{"i BETWEEN -1 AND 1", true},
		{"s NOT BETWEEN 'a' AND 'b'", true},
		{"i IN (1, 'a', NULL)", true},
		{"s NOT IN ('a', 'z')", true},
		{"s LIKE 'a%'", true},
		{"f IS NULL OR s IS NOT NULL", true},
		{"f < NULL", true},
		{"1 = 1", true},
		{"i + 1 > 2", false},      // arithmetic over a column
		{"i < 'a'", false},        // incomparable kinds raise an error
		{"i = f", false},          // column against column
		{"i", false},              // non-boolean column
		{"b AND 1", false},        // non-boolean AND operand
		{"i LIKE '1%'", false},    // LIKE formats non-string cells
		{"UPPER(s) = 'A'", false}, // function over a column
	}
	for _, c := range cases {
		query := "SELECT * FROM k WHERE " + c.pred
		if _, ok := compileKernel(mustParse(t, query).Where, tab, false); ok != c.typed {
			t.Errorf("%s: typed = %v, want %v", c.pred, ok, c.typed)
		}
		checkEngines(t, tab, query)
	}
}

// TestCmpMask pins the operator algebra the kernels push NOT through.
func TestCmpMask(t *testing.T) {
	negations := map[string]string{"<": ">=", "<=": ">", "=": "!=", "!=": "=", ">": "<=", ">=": "<"}
	mirrors := map[string]string{"<": ">", "<=": ">=", "=": "=", "!=": "!=", ">": "<", ">=": "<="}
	for op, neg := range negations {
		m, _ := maskOf(op)
		want, _ := maskOf(neg)
		if m.negate() != want {
			t.Errorf("NOT %s = %03b, want %s", op, m.negate(), neg)
		}
		want, _ = maskOf(mirrors[op])
		if m.mirror() != want {
			t.Errorf("mirror %s = %03b, want %s", op, m.mirror(), mirrors[op])
		}
	}
}

// TestPassThroughColumnsKeepSourceKind pins the result-kind rule: a
// column passed through unchanged keeps its source kind even when every
// selected cell is NULL or nothing is selected (both used to come back as
// string columns, so an exploration subset's schema could differ from its
// table's). Computed columns still take the kind of their values.
func TestPassThroughColumnsKeepSourceKind(t *testing.T) {
	c := salesCatalog(t)
	src := map[string]dataset.Kind{"qty": dataset.KindInt, "p": dataset.KindFloat,
		"price": dataset.KindFloat, "region": dataset.KindString, "product": dataset.KindString}
	for _, query := range []string{
		"SELECT * FROM sales WHERE qty IS NULL",
		"SELECT qty, price AS p FROM sales WHERE region = 'nowhere'",
		"SELECT qty FROM sales WHERE qty IS NULL ORDER BY price",
		"SELECT qty, COUNT(*) FROM sales WHERE qty IS NULL GROUP BY qty",
	} {
		for name, exec := range map[string]func(*SelectStmt, *dataset.Table) (*dataset.Table, error){
			"planned": execute, "interpreted": ExecuteInterpreted,
		} {
			res, err := exec(mustParse(t, query), c.Table("sales"))
			if err != nil {
				t.Fatalf("%s %q: %v", name, query, err)
			}
			for _, def := range res.Schema.Columns {
				if want, ok := src[def.Name]; ok && def.Kind != want {
					t.Errorf("%s %q: column %s is %s, want %s", name, query, def.Name, def.Kind, want)
				}
			}
		}
	}
	res := q(t, c, "SELECT qty + 1 AS q1 FROM sales WHERE qty IS NULL")
	if k := res.Schema.Columns[0].Kind; k != dataset.KindString {
		t.Errorf("all-NULL computed column is %s, want the string default", k)
	}
}

// TestExplainKernelStrategies checks that EXPLAIN reports the typed WHERE
// kernel and the gathered projection, and their boxed counterparts.
func TestExplainKernelStrategies(t *testing.T) {
	c := salesCatalog(t)
	p := explainDoc(t, c, "EXPLAIN SELECT * FROM sales WHERE price >= 1 AND qty < 8")
	if p.Root.Strategy != "gather" || p.Root.Input.Strategy != "typed" {
		t.Errorf("project/filter strategies = %q/%q, want gather/typed", p.Root.Strategy, p.Root.Input.Strategy)
	}
	p = explainDoc(t, c, "EXPLAIN SELECT qty * 2 FROM sales WHERE qty * 2 > 4 ORDER BY 1")
	project := p.Root.Input // sort -> project
	if project.Strategy != "" || project.Input.Strategy != "boxed" {
		t.Errorf("project/filter strategies = %q/%q, want \"\"/boxed", project.Strategy, project.Input.Strategy)
	}
	// An unknown table hides the columns, so nothing is promised typed.
	p = explainDoc(t, c, "EXPLAIN SELECT * FROM nosuch WHERE x > 1")
	if p.Root.Strategy != "" || p.Root.Input.Strategy != "boxed" {
		t.Errorf("unknown table: strategies = %q/%q", p.Root.Strategy, p.Root.Input.Strategy)
	}
}

// TestWhereKernelAllocations pins that the typed path allocates per
// query, not per row: over ten times the rows the exploration shape adds
// only the few allocations its growing selection vector needs.
func TestWhereKernelAllocations(t *testing.T) {
	const query = "SELECT * FROM syn WHERE d1 >= 0.2 AND d1 < 0.4 AND d2 >= 0.1 AND d2 < 0.5"
	allocs := func(rows int) float64 {
		c := NewCatalog()
		c.Register(dataset.GenerateSYN(dataset.SYNConfig{Rows: rows, Seed: 1}))
		return testing.AllocsPerRun(5, func() {
			if _, err := c.Query(query); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2_000), allocs(20_000)
	if large > small+8 {
		t.Errorf("allocations grow with rows: %v at 2k rows, %v at 20k", small, large)
	}
}

// FuzzPlannedMatchesInterpreter is the differential fuzz target for the
// planned executor: any statement that parses must give the interpreter's
// result bit-exactly over the kernel fixture, or fail in both engines.
func FuzzPlannedMatchesInterpreter(f *testing.F) {
	for _, s := range []string{
		"SELECT * FROM k WHERE f >= 0.5 AND f < 2.5 AND i >= -1",
		"SELECT s, COUNT(*) FROM k WHERE NOT (b OR s LIKE 'a%') GROUP BY s",
		"SELECT i, f FROM k WHERE i IN (1, NULL) OR f NOT BETWEEN -1 AND 1 LIMIT 3",
		"SELECT * FROM k WHERE i + 1 > j ORDER BY f",
		"SELECT SUM(j), AVG(f) FROM k WHERE s IS NOT NULL AND i != j",
	} {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, query string, seed int64) {
		if _, err := Parse(query); err == nil {
			checkEngines(t, kernelTable(rand.New(rand.NewSource(seed))), query)
		}
	})
}
