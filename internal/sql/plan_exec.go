package sql

import (
	"fmt"

	"viewseeker/internal/dataset"
)

// executePlanned is the planned executor behind execute: a selection
// vector over the scan, then either a projection or one fused aggregation
// pass that accumulates every aggregate slot into flat per-slot
// accumulator banks (the same shape internal/view uses for its flat Stats
// arrays). Group results are produced by the exact per-value operation
// sequence the interpreter uses, so the two engines are bit-identical.
func executePlanned(stmt *SelectStmt, table *dataset.Table) (*dataset.Table, error) {
	if isAggregate(stmt) {
		return executeFusedAggregate(stmt, table)
	}
	return executeProjection(stmt, table)
}

// buildSelection evaluates the WHERE predicate over nRows and returns the
// surviving row indexes (all rows when there is no predicate). A predicate
// compileKernel accepts runs as one typed kernel over the unboxed
// columns; any other is evaluated boxed, row by row. aggContext rejects
// aggregates inside WHERE.
func buildSelection(stmt *SelectStmt, table *dataset.Table, comp *compiler, nRows int, aggContext bool) ([]int, error) {
	if stmt.Where == nil {
		sel := make([]int, nRows)
		for r := range sel {
			sel[r] = r
		}
		return sel, nil
	}
	if aggContext && ContainsAggregate(stmt.Where) {
		return nil, fmt.Errorf("sql: aggregate in WHERE (use HAVING)")
	}
	if k, ok := compileKernel(stmt.Where, table, false); ok {
		// Filter a fixed-size block of rows at a time, so the scratch
		// selection stays cache-resident and only survivors are kept.
		var sel []int
		block := make([]int, min(nRows, 4096))
		for lo := 0; lo < nRows; lo += len(block) {
			chunk := block[:min(len(block), nRows-lo)]
			for i := range chunk {
				chunk[i] = lo + i
			}
			sel = append(sel, k.filter(chunk)...)
		}
		return sel, nil
	}
	whereG, err := comp.compile(stmt.Where)
	if err != nil {
		return nil, err
	}
	var sel []int
	for r := 0; r < nRows; r++ {
		v, err := whereG(r)
		if err != nil {
			return nil, err
		}
		if v.Kind == dataset.KindBool && v.B {
			sel = append(sel, r)
		}
	}
	return sel, nil
}

// gatherable reports whether a non-aggregate statement's projection is a
// column gather over its selection vector: every item passes a column of
// table through unchanged (* or a bare column reference) and neither
// DISTINCT nor ORDER BY drops or reorders rows.
func gatherable(stmt *SelectStmt, table *dataset.Table) bool {
	if table == nil || stmt.Distinct || len(stmt.OrderBy) > 0 {
		return false
	}
	for _, it := range stmt.Items {
		if !it.Star && column(table, columnName(it.Expr)) == nil {
			return false
		}
	}
	return true
}

// gatherResult materialises a gatherable projection column by column:
// output column j is source column defs[j] gathered at the selected rows
// (the first LIMIT of them), with no per-cell boxing.
func gatherResult(stmt *SelectStmt, table *dataset.Table, names []string, defs []dataset.ColumnDef, sel []int) (*dataset.Table, error) {
	if stmt.Limit >= 0 && len(sel) > stmt.Limit {
		sel = sel[:stmt.Limit]
	}
	schema, err := resultSchema(names, defs)
	if err != nil {
		return nil, err
	}
	cols := make([]*dataset.Column, len(defs))
	for j, def := range defs {
		cols[j] = table.Column(def.Name).Gather(sel)
		cols[j].Def = schema.Columns[j]
	}
	return dataset.FromColumns("result", schema, cols)
}

// executeProjection is the planned non-aggregate path: selection vector
// first, then either a column gather (gatherable) or projection and ORDER
// BY key evaluation over the selected rows.
func executeProjection(stmt *SelectStmt, table *dataset.Table) (*dataset.Table, error) {
	comp := &compiler{bindNode: tableBinder(table)}
	names, defs, getters, err := projectionGetters(stmt, table, comp)
	if err != nil {
		return nil, err
	}
	nRows := 1 // table-less SELECT evaluates once
	if table != nil {
		nRows = table.NumRows()
	}
	sel, err := buildSelection(stmt, table, comp, nRows, false)
	if err != nil {
		return nil, err
	}
	if gatherable(stmt, table) {
		return gatherResult(stmt, table, names, defs, sel)
	}
	orderGetters, err := bindOrderBy(stmt, comp, names)
	if err != nil {
		return nil, err
	}
	rows := make([]outputRow, 0, len(sel))
	for _, r := range sel {
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

// executeFusedAggregate is the planned grouped path. One keying pass turns
// the selection vector into a gid vector (group ids in first-appearance
// order, the same order the interpreter's map+slice grouping yields); then
// each aggregate slot accumulates over (sel, gids) into a contiguous bank
// of accumulators — columnar loops over decoded numeric views where the
// argument is a plain numeric column, boxed evaluation otherwise.
func executeFusedAggregate(stmt *SelectStmt, table *dataset.Table) (*dataset.Table, error) {
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY or aggregates")
		}
	}
	rowComp := &compiler{bindNode: tableBinder(table)}

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

	nRows := 0
	if table != nil {
		nRows = table.NumRows()
	}
	sel, err := buildSelection(stmt, table, rowComp, nRows, true)
	if err != nil {
		return nil, err
	}

	// Keying pass: selection vector -> gid vector.
	gids := make([]int32, len(sel))
	var outs []*groupOut
	if len(stmt.GroupBy) == 0 {
		if len(sel) > 0 {
			outs = []*groupOut{{}}
		}
	} else {
		gidOf := make(map[string]int32)
		keyVals := make([]dataset.Value, len(groupGetters))
		for i, r := range sel {
			for k, g := range groupGetters {
				v, err := g(r)
				if err != nil {
					return nil, err
				}
				keyVals[k] = v
			}
			key := rowKey(keyVals)
			gid, ok := gidOf[key]
			if !ok {
				gid = int32(len(outs))
				gidOf[key] = gid
				outs = append(outs, &groupOut{keyVals: append([]dataset.Value(nil), keyVals...)})
			}
			gids[i] = gid
		}
	}
	// A table with zero matching rows and no GROUP BY still yields one
	// global group (SELECT COUNT(*) FROM empty = 0).
	if len(outs) == 0 && len(stmt.GroupBy) == 0 {
		outs = []*groupOut{{}}
		sel = nil
		gids = nil
	}

	// Fused accumulation: one contiguous accumulator bank per slot.
	for _, out := range outs {
		out.res = make([]dataset.Value, len(calls))
	}
	for si, call := range calls {
		accs := newAccumulatorBank(call.Func, len(outs))
		if err := accumulateSlot(accs, call, argGetters[si], table, sel, gids); err != nil {
			return nil, err
		}
		for g := range outs {
			v, err := accs[g].result()
			if err != nil {
				return nil, err
			}
			outs[g].res[si] = v
		}
	}
	return projectGroups(stmt, table, groupKeys, slotIndex, outs)
}

// newAccumulatorBank returns a flat bank of initialised accumulators, one
// per group, for a single aggregate slot.
func newAccumulatorBank(fn string, n int) []aggAccumulator {
	accs := make([]aggAccumulator, n)
	for i := range accs {
		accs[i] = aggAccumulator{fn: fn, allInts: true, min: dataset.Null, max: dataset.Null}
	}
	return accs
}

// accumulateSlot feeds one aggregate slot's bank from the selected rows.
// Plain numeric ColumnRef arguments to COUNT/SUM/AVG/VARIANCE/STDDEV take
// the columnar fast path (decode-once NumericView, bitmap null test);
// everything else evaluates the boxed argument per row. Both paths issue
// the identical addNumeric sequence per (group, value).
func accumulateSlot(accs []aggAccumulator, call *Call, arg getter, table *dataset.Table, sel []int, gids []int32) error {
	gid := func(i int) int32 {
		if gids == nil {
			return 0
		}
		return gids[i]
	}
	if call.Star { // COUNT(*): selection vector alone
		for i := range sel {
			accs[gid(i)].count++
		}
		return nil
	}
	if col := columnarColumn(call, table); col != nil {
		vals, nulls, ok := col.NumericView()
		if ok {
			switch {
			case call.Func == "COUNT":
				for i, r := range sel {
					if bitmapNull(nulls, r) {
						continue
					}
					accs[gid(i)].count++
				}
			case col.Def.Kind == dataset.KindInt:
				ints := col.Ints
				for i, r := range sel {
					if bitmapNull(nulls, r) {
						continue
					}
					a := &accs[gid(i)]
					a.count++
					a.addNumeric(vals[r], ints[r], true)
				}
			default: // KindFloat
				for i, r := range sel {
					if bitmapNull(nulls, r) {
						continue
					}
					a := &accs[gid(i)]
					a.count++
					a.addNumeric(vals[r], 0, false)
				}
			}
			return nil
		}
	}
	for i, r := range sel {
		v, err := arg(r)
		if err != nil {
			return err
		}
		if err := accs[gid(i)].add(v); err != nil {
			return err
		}
	}
	return nil
}

// columnarColumn returns the backing column when an aggregate call is
// eligible for the columnar fast path: a moment aggregate (COUNT, SUM,
// AVG, VARIANCE, STDDEV) over a bare Int or Float column reference.
// MIN/MAX compare boxed values (kind-aware ordering), so they stay on the
// generic path.
func columnarColumn(call *Call, table *dataset.Table) *dataset.Column {
	if call.Star || table == nil {
		return nil
	}
	switch call.Func {
	case "COUNT", "SUM", "AVG", "VARIANCE", "STDDEV":
	default:
		return nil
	}
	ref, ok := call.Args[0].(*ColumnRef)
	if !ok {
		return nil
	}
	col := table.Column(ref.Name)
	if col == nil {
		return nil
	}
	if col.Def.Kind != dataset.KindInt && col.Def.Kind != dataset.KindFloat {
		return nil
	}
	return col
}

// bitmapNull tests one row in a column null bitmap.
func bitmapNull(nulls []uint64, r int) bool {
	w := r >> 6
	return w < len(nulls) && nulls[w]&(1<<(uint(r)&63)) != 0
}
