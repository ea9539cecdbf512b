package sql

import (
	"fmt"

	"viewseeker/internal/dataset"
)

// ExecuteInterpreted runs a parsed statement through the retained
// tree-walking interpreter: one expression-tree walk per row, row-major
// aggregation. It has no production caller: it is the bit-identity oracle
// the planned executor is held to by the equivalence property tests and
// FuzzPlannedMatchesInterpreter. It shares the result tail (bindOrderBy,
// projectGroups, finishRows) and aggAccumulator with the planned
// executor, so the engines differ only in how they scan, filter and group.
func ExecuteInterpreted(stmt *SelectStmt, table *dataset.Table) (*dataset.Table, error) {
	if stmt.From != "" && table == nil {
		return nil, fmt.Errorf("sql: statement references table %q but none was supplied", stmt.From)
	}
	if isAggregate(stmt) {
		return executeAggregate(stmt, table)
	}
	return executePlain(stmt, table)
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

func newAccumulator(fn string) *aggAccumulator {
	return &aggAccumulator{fn: fn, allInts: true, min: dataset.Null, max: dataset.Null}
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
