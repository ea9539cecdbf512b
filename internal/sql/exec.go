package sql

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"viewseeker/internal/dataset"
)

// Execute runs a parsed statement against a table through the planned
// executor (see plan.go / plan_exec.go). The table may be nil only for
// table-less statements (no FROM clause). The result is a new table named
// "result".
func Execute(stmt *SelectStmt, table *dataset.Table) (*dataset.Table, error) {
	if stmt.From != "" && table == nil {
		return nil, fmt.Errorf("sql: statement references table %q but none was supplied", stmt.From)
	}
	return executePlanned(stmt, table)
}

// ExecuteInterpreted runs a parsed statement through the retained
// tree-walking interpreter: one expression-tree walk per row, row-major
// aggregation. It is the bit-identity oracle the planned executor is held
// to (the same retained-reference pattern as view.CollectStatsReference)
// and is exercised against Execute by the equivalence property tests.
func ExecuteInterpreted(stmt *SelectStmt, table *dataset.Table) (*dataset.Table, error) {
	if stmt.From != "" && table == nil {
		return nil, fmt.Errorf("sql: statement references table %q but none was supplied", stmt.From)
	}
	if isAggregate(stmt) {
		return executeAggregate(stmt, table)
	}
	return executePlain(stmt, table)
}

// isAggregate reports whether the statement needs grouped execution.
func isAggregate(stmt *SelectStmt) bool {
	if len(stmt.GroupBy) > 0 || stmt.Having != nil {
		return true
	}
	for _, it := range stmt.Items {
		if !it.Star && ContainsAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// outputRow pairs projected values with hidden sort keys.
type outputRow struct {
	vals []dataset.Value
	keys []dataset.Value
}

func tableBinder(table *dataset.Table) func(e Expr) (getter, bool, error) {
	return func(e Expr) (getter, bool, error) {
		ref, ok := e.(*ColumnRef)
		if !ok {
			return nil, false, nil
		}
		if table == nil {
			return nil, false, fmt.Errorf("sql: column %q referenced without a FROM clause", ref.Name)
		}
		col := table.Column(ref.Name)
		if col == nil {
			return nil, false, fmt.Errorf("sql: unknown column %q in table %q", ref.Name, table.Name)
		}
		return func(row int) (dataset.Value, error) { return col.Value(row), nil }, true, nil
	}
}

// sourceDef returns the definition of the column an output item passes
// through unchanged (a bare column reference), or the zero definition —
// kind KindNull, role Other — for a computed item.
func sourceDef(e Expr, table *dataset.Table) dataset.ColumnDef {
	if c := column(table, columnName(e)); c != nil {
		return c.Def
	}
	return dataset.ColumnDef{}
}

// projectionGetters expands the statement's SELECT items into output
// names, source definitions (see sourceDef), and compiled getters.
// Shared by the interpreter's plain path and the planned projection.
func projectionGetters(stmt *SelectStmt, table *dataset.Table, comp *compiler) ([]string, []dataset.ColumnDef, []getter, error) {
	var names []string
	var getters []getter
	var defs []dataset.ColumnDef
	for _, it := range stmt.Items {
		if it.Star {
			if table == nil {
				return nil, nil, nil, fmt.Errorf("sql: SELECT * without a FROM clause")
			}
			for _, col := range table.Cols {
				c := col
				names = append(names, c.Def.Name)
				defs = append(defs, c.Def)
				getters = append(getters, func(row int) (dataset.Value, error) { return c.Value(row), nil })
			}
			continue
		}
		g, err := comp.compile(it.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		names = append(names, it.OutputName())
		defs = append(defs, sourceDef(it.Expr, table))
		getters = append(getters, g)
	}
	return names, defs, getters, nil
}

func executePlain(stmt *SelectStmt, table *dataset.Table) (*dataset.Table, error) {
	comp := &compiler{bindNode: tableBinder(table)}
	names, defs, getters, err := projectionGetters(stmt, table, comp)
	if err != nil {
		return nil, err
	}

	var whereG getter
	if stmt.Where != nil {
		g, err := comp.compile(stmt.Where)
		if err != nil {
			return nil, err
		}
		whereG = g
	}
	orderGetters, err := bindOrderBy(stmt, comp, names)
	if err != nil {
		return nil, err
	}

	nRows := 1 // table-less SELECT evaluates once
	if table != nil {
		nRows = table.NumRows()
	}
	var rows []outputRow
	for r := 0; r < nRows; r++ {
		if whereG != nil {
			v, err := whereG(r)
			if err != nil {
				return nil, err
			}
			if v.Kind != dataset.KindBool || !v.B {
				continue
			}
		}
		out := outputRow{vals: make([]dataset.Value, len(getters))}
		for i, g := range getters {
			v, err := g(r)
			if err != nil {
				return nil, err
			}
			out.vals[i] = v
		}
		for _, og := range orderGetters {
			v, err := og.get(r, out.vals)
			if err != nil {
				return nil, err
			}
			out.keys = append(out.keys, v)
		}
		rows = append(rows, out)
	}
	return finishRows(stmt, names, defs, rows)
}

// orderGetter evaluates one ORDER BY key either from the row context or
// from the already-projected output values (alias / position references).
type orderGetter struct {
	get  func(row int, out []dataset.Value) (dataset.Value, error)
	desc bool
}

func bindOrderBy(stmt *SelectStmt, comp *compiler, outputNames []string) ([]orderGetter, error) {
	var out []orderGetter
	for _, o := range stmt.OrderBy {
		og := orderGetter{desc: o.Desc}
		switch e := o.Expr.(type) {
		case *Literal:
			if idx, ok := e.Val.AsInt(); ok && e.Val.Kind == dataset.KindInt {
				if idx < 1 || int(idx) > len(outputNames) {
					return nil, fmt.Errorf("sql: ORDER BY position %d out of range", idx)
				}
				i := int(idx) - 1
				og.get = func(_ int, outVals []dataset.Value) (dataset.Value, error) { return outVals[i], nil }
				out = append(out, og)
				continue
			}
		case *ColumnRef:
			if i := indexOf(outputNames, e.Name); i >= 0 {
				og.get = func(_ int, outVals []dataset.Value) (dataset.Value, error) { return outVals[i], nil }
				out = append(out, og)
				continue
			}
		}
		g, err := comp.compile(o.Expr)
		if err != nil {
			return nil, err
		}
		og.get = func(row int, _ []dataset.Value) (dataset.Value, error) { return g(row) }
		out = append(out, og)
	}
	return out, nil
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// finishRows applies DISTINCT, ORDER BY, LIMIT and materialises the result
// table. A column passed through from the source (defs[j].Kind set) keeps
// its kind and role; a computed column takes the kind of its first
// non-NULL value (string when it has none).
func finishRows(stmt *SelectStmt, names []string, defs []dataset.ColumnDef, rows []outputRow) (*dataset.Table, error) {
	if stmt.Distinct {
		seen := make(map[string]bool, len(rows))
		kept := rows[:0]
		for _, r := range rows {
			key := rowKey(r.vals)
			if !seen[key] {
				seen[key] = true
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if len(stmt.OrderBy) > 0 {
		descs := make([]bool, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			descs[i] = o.Desc
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for k := range descs {
				c := dataset.Compare(rows[i].keys[k], rows[j].keys[k])
				if c == 0 {
					continue
				}
				if descs[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if stmt.Limit >= 0 && len(rows) > stmt.Limit {
		rows = rows[:stmt.Limit]
	}

	for j := range defs {
		if defs[j].Kind != dataset.KindNull {
			continue
		}
		defs[j].Kind = dataset.KindString
		for _, r := range rows {
			if !r.vals[j].IsNull() {
				defs[j].Kind = r.vals[j].Kind
				break
			}
		}
	}
	schema, err := resultSchema(names, defs)
	if err != nil {
		return nil, err
	}
	res := dataset.NewTable("result", schema)
	for _, r := range rows {
		if err := res.AppendRow(r.vals...); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resultSchema names the output columns — duplicates disambiguated, as in
// SELECT a, a → a, a_1 — over the given kinds and roles.
func resultSchema(names []string, defs []dataset.ColumnDef) (*dataset.Schema, error) {
	out := make([]dataset.ColumnDef, len(names))
	used := make(map[string]int)
	for j, n := range names {
		if c := used[n]; c > 0 {
			n = n + "_" + strconv.Itoa(c)
		}
		used[names[j]]++
		out[j] = dataset.ColumnDef{Name: n, Kind: defs[j].Kind, Role: defs[j].Role}
	}
	return dataset.NewSchema(out...)
}

func rowKey(vals []dataset.Value) string {
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteByte(byte(v.Kind) + '0')
		s := v.String()
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}

// aggAccumulator accumulates one aggregate call for one group. Both
// executors feed it the same per-row operation sequence, so group results
// are bit-identical across engines.
//
// SUM keeps a parallel int64 accumulator while every input is an integer:
// float64 summation loses exactness past 2^53 (SUM over {2^53,1,1,1} used
// to return 9007199254740996). Overflowing int64 is reported as an error
// rather than silently wrapping.
//
// VARIANCE/STDDEV accumulate second moments shifted by the group's first
// value: Var = E[(v−s)²] − E[v−s]², algebraically identical for any s but
// numerically stable when |mean| ≫ stddev (raw Σv² cancellation made
// STDDEV over {1e9, 1e9+1, 1e9+2} collapse to 0).
type aggAccumulator struct {
	fn       string
	count    int64
	sum      float64
	isum     int64 // exact integer SUM, valid while allInts && !overflow
	overflow bool
	allInts  bool
	shift    float64 // first accumulated value
	shiftSet bool
	sSum     float64 // Σ (v − shift)
	sSumSq   float64 // Σ (v − shift)²
	min      dataset.Value
	max      dataset.Value
}

func newAccumulator(fn string) *aggAccumulator {
	return &aggAccumulator{fn: fn, allInts: true, min: dataset.Null, max: dataset.Null}
}

// addNumeric is the shared numeric core: the planned executor's columnar
// loops and the interpreter's boxed add both bottom out here, one call per
// accumulated value in row order.
func (a *aggAccumulator) addNumeric(f float64, i int64, isInt bool) {
	if !isInt {
		a.allInts = false
	}
	if a.allInts && !a.overflow {
		s := a.isum + i
		if (i > 0 && s < a.isum) || (i < 0 && s > a.isum) {
			a.overflow = true
		} else {
			a.isum = s
		}
	}
	a.sum += f
	if !a.shiftSet {
		a.shift, a.shiftSet = f, true
	}
	d := f - a.shift
	a.sSum += d
	a.sSumSq += d * d
}

func (a *aggAccumulator) add(v dataset.Value) error {
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	a.count++
	switch a.fn {
	case "COUNT":
		return nil
	case "SUM", "AVG", "VARIANCE", "STDDEV":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("sql: %s over non-numeric value %s", a.fn, v.Kind)
		}
		a.addNumeric(f, v.I, v.Kind == dataset.KindInt)
		return nil
	case "MIN":
		if a.min.IsNull() || dataset.Compare(v, a.min) < 0 {
			a.min = v
		}
		return nil
	case "MAX":
		if a.max.IsNull() || dataset.Compare(v, a.max) > 0 {
			a.max = v
		}
		return nil
	default:
		return fmt.Errorf("sql: unknown aggregate %s", a.fn)
	}
}

func (a *aggAccumulator) result() (dataset.Value, error) {
	switch a.fn {
	case "COUNT":
		return dataset.Int(a.count), nil
	case "SUM":
		if a.count == 0 {
			return dataset.Null, nil
		}
		if a.allInts {
			if a.overflow {
				return dataset.Null, fmt.Errorf("sql: SUM overflows int64")
			}
			return dataset.Int(a.isum), nil
		}
		return dataset.Float(a.sum), nil
	case "AVG":
		if a.count == 0 {
			return dataset.Null, nil
		}
		return dataset.Float(a.sum / float64(a.count)), nil
	case "VARIANCE", "STDDEV":
		if a.count == 0 {
			return dataset.Null, nil
		}
		n := float64(a.count)
		v := a.sSumSq/n - (a.sSum/n)*(a.sSum/n)
		if v < 0 {
			v = 0 // fp noise on constant columns
		}
		if a.fn == "STDDEV" {
			v = math.Sqrt(v)
		}
		return dataset.Float(v), nil
	case "MIN":
		return a.min, nil
	case "MAX":
		return a.max, nil
	default:
		return dataset.Null, fmt.Errorf("sql: unknown aggregate %s", a.fn)
	}
}

// findAggregates walks an expression and registers every distinct
// aggregate call (keyed by canonical string) in seen, validating arity and
// rejecting nesting. Purely structural — argument compilation happens
// separately so plan lowering can reuse the discovery.
func findAggregates(e Expr, seen map[string]*Call) error {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Literal, *ColumnRef:
		return nil
	case *Unary:
		return findAggregates(x.X, seen)
	case *Binary:
		if err := findAggregates(x.L, seen); err != nil {
			return err
		}
		return findAggregates(x.R, seen)
	case *Call:
		if aggregateFuncs[x.Func] {
			key := x.String()
			if _, ok := seen[key]; ok {
				return nil
			}
			if !x.Star {
				if len(x.Args) != 1 {
					return fmt.Errorf("sql: %s expects one argument", x.Func)
				}
				if ContainsAggregate(x.Args[0]) {
					return fmt.Errorf("sql: nested aggregate in %s", key)
				}
			} else if x.Func != "COUNT" {
				return fmt.Errorf("sql: %s(*) is not valid", x.Func)
			}
			seen[key] = x
			return nil
		}
		for _, a := range x.Args {
			if err := findAggregates(a, seen); err != nil {
				return err
			}
		}
		return nil
	case *InList:
		if err := findAggregates(x.X, seen); err != nil {
			return err
		}
		for _, a := range x.List {
			if err := findAggregates(a, seen); err != nil {
				return err
			}
		}
		return nil
	case *Between:
		if err := findAggregates(x.X, seen); err != nil {
			return err
		}
		if err := findAggregates(x.Lo, seen); err != nil {
			return err
		}
		return findAggregates(x.Hi, seen)
	case *IsNull:
		return findAggregates(x.X, seen)
	case *Like:
		if err := findAggregates(x.X, seen); err != nil {
			return err
		}
		return findAggregates(x.Pattern, seen)
	case *Case:
		for _, w := range x.Whens {
			if err := findAggregates(w.Cond, seen); err != nil {
				return err
			}
			if err := findAggregates(w.Result, seen); err != nil {
				return err
			}
		}
		return findAggregates(x.Else, seen)
	default:
		return fmt.Errorf("sql: cannot analyse %T", e)
	}
}

// statementAggregates discovers every distinct aggregate call across the
// statement's items, HAVING and ORDER BY, returning calls in canonical
// (sorted string) order. Both executors and the plan lowering share it, so
// slot order is identical everywhere.
func statementAggregates(stmt *SelectStmt) ([]string, []*Call, error) {
	seen := make(map[string]*Call)
	for _, it := range stmt.Items {
		if it.Star {
			continue
		}
		if err := findAggregates(it.Expr, seen); err != nil {
			return nil, nil, err
		}
	}
	if err := findAggregates(stmt.Having, seen); err != nil {
		return nil, nil, err
	}
	for _, o := range stmt.OrderBy {
		if err := findAggregates(o.Expr, seen); err != nil {
			return nil, nil, err
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	calls := make([]*Call, len(keys))
	for i, k := range keys {
		calls[i] = seen[k]
	}
	return keys, calls, nil
}

// compileAggArgs compiles each aggregate call's argument in row context
// (nil getter for COUNT(*)).
func compileAggArgs(calls []*Call, comp *compiler) ([]getter, error) {
	args := make([]getter, len(calls))
	for i, c := range calls {
		if c.Star {
			continue
		}
		g, err := comp.compile(c.Args[0])
		if err != nil {
			return nil, err
		}
		args[i] = g
	}
	return args, nil
}

// groupOut is one finished group: its key values and the materialised
// result of every aggregate slot, in slot order. Both executors produce
// this shape and hand it to projectGroups.
type groupOut struct {
	keyVals []dataset.Value
	res     []dataset.Value
}

// groupCompiler binds expressions in group context: GROUP BY expressions
// and aggregate calls become constant lookups; anything else must bottom
// out in those.
func groupCompiler(groupKeys []string, slotIndex map[string]int, grp *groupOut) *compiler {
	return &compiler{bindNode: func(e Expr) (getter, bool, error) {
		s := e.String()
		for i, gk := range groupKeys {
			if s == gk {
				v := grp.keyVals[i]
				return func(int) (dataset.Value, error) { return v, nil }, true, nil
			}
		}
		if c, ok := e.(*Call); ok && aggregateFuncs[c.Func] {
			i, ok := slotIndex[s]
			if !ok {
				return nil, false, fmt.Errorf("sql: internal: unregistered aggregate %s", s)
			}
			v := grp.res[i]
			return func(int) (dataset.Value, error) { return v, nil }, true, nil
		}
		if ref, ok := e.(*ColumnRef); ok {
			return nil, false, fmt.Errorf("sql: column %q must appear in GROUP BY or inside an aggregate", ref.Name)
		}
		return nil, false, nil
	}}
}

// projectGroups runs the post-aggregation tail shared by both executors:
// HAVING, item projection, ORDER BY key binding, then DISTINCT/sort/limit
// via finishRows.
func projectGroups(stmt *SelectStmt, table *dataset.Table, groupKeys []string, slotIndex map[string]int, groups []*groupOut) (*dataset.Table, error) {
	names := make([]string, len(stmt.Items))
	defs := make([]dataset.ColumnDef, len(stmt.Items))
	for i, it := range stmt.Items {
		names[i] = it.OutputName()
		defs[i] = sourceDef(it.Expr, table)
	}

	var rows []outputRow
	for _, grp := range groups {
		comp := groupCompiler(groupKeys, slotIndex, grp)
		if stmt.Having != nil {
			hg, err := comp.compile(stmt.Having)
			if err != nil {
				return nil, err
			}
			v, err := hg(0)
			if err != nil {
				return nil, err
			}
			if v.Kind != dataset.KindBool || !v.B {
				continue
			}
		}
		out := outputRow{vals: make([]dataset.Value, len(stmt.Items))}
		for i, it := range stmt.Items {
			g, err := comp.compile(it.Expr)
			if err != nil {
				return nil, err
			}
			v, err := g(0)
			if err != nil {
				return nil, err
			}
			out.vals[i] = v
		}
		ogs, err := bindOrderBy(stmt, comp, names)
		if err != nil {
			return nil, err
		}
		for _, og := range ogs {
			v, err := og.get(0, out.vals)
			if err != nil {
				return nil, err
			}
			out.keys = append(out.keys, v)
		}
		rows = append(rows, out)
	}
	return finishRows(stmt, names, defs, rows)
}

type group struct {
	keyVals []dataset.Value
	accs    []*aggAccumulator
}

func executeAggregate(stmt *SelectStmt, table *dataset.Table) (*dataset.Table, error) {
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY or aggregates")
		}
	}
	rowComp := &compiler{bindNode: tableBinder(table)}

	// Compile GROUP BY expressions in row context.
	groupGetters := make([]getter, len(stmt.GroupBy))
	groupKeys := make([]string, len(stmt.GroupBy))
	for i, ge := range stmt.GroupBy {
		if ContainsAggregate(ge) {
			return nil, fmt.Errorf("sql: aggregate in GROUP BY")
		}
		g, err := rowComp.compile(ge)
		if err != nil {
			return nil, err
		}
		groupGetters[i] = g
		groupKeys[i] = ge.String()
	}

	// Discover aggregate slots across items, HAVING and ORDER BY.
	slotKeys, calls, err := statementAggregates(stmt)
	if err != nil {
		return nil, err
	}
	argGetters, err := compileAggArgs(calls, rowComp)
	if err != nil {
		return nil, err
	}
	slotIndex := make(map[string]int, len(slotKeys))
	for i, k := range slotKeys {
		slotIndex[k] = i
	}

	var whereG getter
	if stmt.Where != nil {
		if ContainsAggregate(stmt.Where) {
			return nil, fmt.Errorf("sql: aggregate in WHERE (use HAVING)")
		}
		g, err := rowComp.compile(stmt.Where)
		if err != nil {
			return nil, err
		}
		whereG = g
	}

	// Scan and group.
	groups := make(map[string]*group)
	var order []string
	nRows := 0
	if table != nil {
		nRows = table.NumRows()
	}
	for r := 0; r < nRows; r++ {
		if whereG != nil {
			v, err := whereG(r)
			if err != nil {
				return nil, err
			}
			if v.Kind != dataset.KindBool || !v.B {
				continue
			}
		}
		keyVals := make([]dataset.Value, len(groupGetters))
		for i, g := range groupGetters {
			v, err := g(r)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		key := rowKey(keyVals)
		grp, ok := groups[key]
		if !ok {
			grp = &group{keyVals: keyVals, accs: make([]*aggAccumulator, len(slotKeys))}
			for i := range calls {
				grp.accs[i] = newAccumulator(calls[i].Func)
			}
			groups[key] = grp
			order = append(order, key)
		}
		for i := range calls {
			if argGetters[i] == nil { // COUNT(*)
				grp.accs[i].count++
				continue
			}
			v, err := argGetters[i](r)
			if err != nil {
				return nil, err
			}
			if err := grp.accs[i].add(v); err != nil {
				return nil, err
			}
		}
	}
	// A table with zero matching rows and no GROUP BY still yields one
	// global group (SELECT COUNT(*) FROM empty = 0).
	if len(groups) == 0 && len(stmt.GroupBy) == 0 {
		grp := &group{accs: make([]*aggAccumulator, len(slotKeys))}
		for i := range calls {
			grp.accs[i] = newAccumulator(calls[i].Func)
		}
		groups["\x00global"] = grp
		order = append(order, "\x00global")
	}

	// Materialise each group's aggregate results in first-appearance order.
	outs := make([]*groupOut, 0, len(order))
	for _, key := range order {
		grp := groups[key]
		out := &groupOut{keyVals: grp.keyVals, res: make([]dataset.Value, len(grp.accs))}
		for i, acc := range grp.accs {
			v, err := acc.result()
			if err != nil {
				return nil, err
			}
			out.res[i] = v
		}
		outs = append(outs, out)
	}
	return projectGroups(stmt, table, groupKeys, slotIndex, outs)
}

// cutExplain strips a leading EXPLAIN keyword (case-insensitive) and
// reports whether one was present.
func cutExplain(query string) (string, bool) {
	trimmed := strings.TrimLeft(query, " \t\r\n")
	if len(trimmed) < 8 || !strings.EqualFold(trimmed[:7], "EXPLAIN") {
		return query, false
	}
	switch trimmed[7] {
	case ' ', '\t', '\r', '\n':
		return trimmed[8:], true
	}
	return query, false
}

// Catalog maps table names to tables and runs queries against them.
type Catalog struct {
	tables map[string]*dataset.Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: make(map[string]*dataset.Table)} }

// Register adds (or replaces) a table under its own name.
func (c *Catalog) Register(t *dataset.Table) { c.tables[t.Name] = t }

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *dataset.Table { return c.tables[name] }

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query parses and executes a statement against the catalog. A statement
// prefixed with EXPLAIN returns the lowered physical plan as a one-row,
// one-column table holding the plan's JSON document instead of running.
func (c *Catalog) Query(query string) (*dataset.Table, error) {
	if rest, ok := cutExplain(query); ok {
		stmt, err := Parse(rest)
		if err != nil {
			return nil, err
		}
		// EXPLAIN is lenient about unregistered tables: the plan shape
		// depends only on the statement; the table (when present) merely
		// refines per-aggregate columnar eligibility.
		var tbl *dataset.Table
		if stmt.From != "" {
			tbl = c.tables[stmt.From]
		}
		plan, err := Lower(stmt, tbl)
		if err != nil {
			return nil, err
		}
		doc, err := plan.JSON()
		if err != nil {
			return nil, err
		}
		schema, err := dataset.NewSchema(dataset.ColumnDef{Name: "plan", Kind: dataset.KindString})
		if err != nil {
			return nil, err
		}
		t := dataset.NewTable("plan", schema)
		if err := t.AppendRow(dataset.StringVal(doc)); err != nil {
			return nil, err
		}
		return t, nil
	}
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	var t *dataset.Table
	if stmt.From != "" {
		t = c.tables[stmt.From]
		if t == nil {
			return nil, fmt.Errorf("sql: unknown table %q", stmt.From)
		}
	}
	return Execute(stmt, t)
}
