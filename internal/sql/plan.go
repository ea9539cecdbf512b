package sql

import (
	"encoding/json"
	"fmt"

	"viewseeker/internal/dataset"
)

// PlanVersion identifies the EXPLAIN JSON schema. Consumers should reject
// documents with a version they do not understand; bump it whenever a
// field changes meaning or the operator set changes shape.
const PlanVersion = 1

// Plan is the physical plan a statement lowers to: a linear operator
// chain, outermost first (Root consumes its Input, down to the leaf scan
// or values node). EXPLAIN serialises exactly this structure as indented
// JSON, so the document is stable across runs for a given statement.
type Plan struct {
	Version int       `json:"version"`
	Root    *PlanNode `json:"root"`
}

// PlanNode is one physical operator. Which fields are populated depends on
// Op:
//
//	scan      Table
//	values    (leaf; table-less SELECT evaluates one const row)
//	filter    Predicate; Phase="having" for the post-aggregate filter,
//	          else Strategy "typed" (a column kernel) or "boxed"
//	aggregate GroupBy, Strategy, Aggregates
//	project   Columns, and Strategy="gather" when the result is gathered
//	          column by column from the selection vector
//	distinct  (no operands)
//	sort      Keys
//	limit     Count
type PlanNode struct {
	Op         string          `json:"op"`
	Table      string          `json:"table,omitempty"`
	Predicate  string          `json:"predicate,omitempty"`
	Phase      string          `json:"phase,omitempty"`
	GroupBy    []string        `json:"group_by,omitempty"`
	Strategy   string          `json:"strategy,omitempty"`
	Aggregates []PlanAggregate `json:"aggregates,omitempty"`
	Columns    []string        `json:"columns,omitempty"`
	Keys       []PlanSortKey   `json:"keys,omitempty"`
	Count      *int            `json:"count,omitempty"`
	Input      *PlanNode       `json:"input,omitempty"`
}

// PlanAggregate is one fused aggregate slot, in canonical slot order (the
// order both executors accumulate and materialise them). Columnar reports
// whether the fused executor will feed this slot from a decoded numeric
// column view instead of boxed per-row evaluation.
type PlanAggregate struct {
	Call     string `json:"call"`
	Fn       string `json:"fn"`
	Arg      string `json:"arg,omitempty"`
	Star     bool   `json:"star,omitempty"`
	Columnar bool   `json:"columnar"`
}

// PlanSortKey is one ORDER BY key.
type PlanSortKey struct {
	Expr string `json:"expr"`
	Desc bool   `json:"desc,omitempty"`
}

// Lower turns a parsed statement into its physical plan. Lowering is
// structural: expressions are carried as their canonical strings —
// compilation stays in the executor, which Lower only asks whether the
// WHERE predicate compiles to a typed kernel — so Lower never needs row
// context and works with a nil table (the table only refines the
// strategies: per-aggregate Columnar, the typed filter and the gathered
// projection then report the boxed paths for columns Lower cannot see).
func Lower(stmt *SelectStmt, table *dataset.Table) (*Plan, error) {
	var node *PlanNode
	if stmt.From != "" {
		node = &PlanNode{Op: "scan", Table: stmt.From}
	} else {
		node = &PlanNode{Op: "values"}
	}
	if stmt.Where != nil {
		if isAggregate(stmt) && ContainsAggregate(stmt.Where) {
			return nil, fmt.Errorf("sql: aggregate in WHERE (use HAVING)")
		}
		strategy := "boxed"
		if _, ok := compileKernel(stmt.Where, table, false); ok {
			strategy = "typed"
		}
		node = &PlanNode{Op: "filter", Predicate: stmt.Where.String(), Strategy: strategy, Input: node}
	}
	if isAggregate(stmt) {
		for _, it := range stmt.Items {
			if it.Star {
				return nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY or aggregates")
			}
		}
		for _, ge := range stmt.GroupBy {
			if ContainsAggregate(ge) {
				return nil, fmt.Errorf("sql: aggregate in GROUP BY")
			}
		}
		keys, calls, err := statementAggregates(stmt)
		if err != nil {
			return nil, err
		}
		aggs := make([]PlanAggregate, len(calls))
		for i, c := range calls {
			aggs[i] = PlanAggregate{
				Call:     keys[i],
				Fn:       c.Func,
				Star:     c.Star,
				Columnar: columnarAggregate(c, table),
			}
			if !c.Star {
				aggs[i].Arg = c.Args[0].String()
			}
		}
		agg := &PlanNode{Op: "aggregate", Aggregates: aggs, Input: node}
		if len(stmt.GroupBy) > 0 {
			agg.Strategy = "fused-hash"
			agg.GroupBy = make([]string, len(stmt.GroupBy))
			for i, ge := range stmt.GroupBy {
				agg.GroupBy[i] = ge.String()
			}
		} else {
			agg.Strategy = "fused-global"
		}
		node = agg
		if stmt.Having != nil {
			node = &PlanNode{Op: "filter", Predicate: stmt.Having.String(), Phase: "having", Input: node}
		}
	}
	cols := make([]string, len(stmt.Items))
	for i, it := range stmt.Items {
		if it.Star {
			cols[i] = "*"
		} else {
			cols[i] = it.OutputName()
		}
	}
	node = &PlanNode{Op: "project", Columns: cols, Input: node}
	if !isAggregate(stmt) && gatherable(stmt, table) {
		node.Strategy = "gather"
	}
	if stmt.Distinct {
		node = &PlanNode{Op: "distinct", Input: node}
	}
	if len(stmt.OrderBy) > 0 {
		sortKeys := make([]PlanSortKey, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			sortKeys[i] = PlanSortKey{Expr: o.Expr.String(), Desc: o.Desc}
		}
		node = &PlanNode{Op: "sort", Keys: sortKeys, Input: node}
	}
	if stmt.Limit >= 0 {
		n := stmt.Limit
		node = &PlanNode{Op: "limit", Count: &n, Input: node}
	}
	return &Plan{Version: PlanVersion, Root: node}, nil
}

// columnarAggregate reports whether the fused executor will drive this
// aggregate from a decoded numeric column view (see columnarColumn) or,
// for COUNT(*), from the selection vector alone.
func columnarAggregate(c *Call, table *dataset.Table) bool {
	return c.Star || columnarColumn(c, table) != nil
}

// JSON renders the plan as an indented, stable JSON document.
func (p *Plan) JSON() (string, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}
