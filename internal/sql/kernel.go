package sql

import (
	"fmt"

	"viewseeker/internal/dataset"
)

// rowTest reports whether a compiled WHERE predicate is TRUE on row r.
type rowTest func(r int) bool

// kernel is a WHERE predicate compiled against a table's unboxed columns.
// Kernels never fail: compileKernel only builds them for predicates that
// cannot raise a run-time error.
type kernel struct {
	test rowTest
	// batch, when set, narrows a selection vector in place to its TRUE
	// rows column-at-a-time, without a call per row.
	batch func(sel []int) []int
}

// filter narrows sel in place to the rows on which the predicate is TRUE.
func (k kernel) filter(sel []int) []int {
	if k.batch != nil {
		return k.batch(sel)
	}
	out := sel[:0]
	for _, r := range sel {
		if k.test(r) {
			out = append(out, r)
		}
	}
	return out
}

var (
	// never is a predicate that is never TRUE: it compares with NULL, or
	// is the constant FALSE or NULL.
	never  = kernel{test: func(int) bool { return false }, batch: func(sel []int) []int { return sel[:0] }}
	always = kernel{test: func(int) bool { return true }, batch: func(sel []int) []int { return sel }}
)

// leaf wraps a row test that has no batch form.
func leaf(t rowTest) (kernel, bool) { return kernel{test: t}, true }

// compileKernel lowers a WHERE predicate to a typed kernel over table, or
// reports ok=false when any node needs boxed evaluation: arithmetic or
// function calls over columns, comparisons whose kinds could be
// incomparable, non-boolean operands of AND/OR/NOT. The caller then runs
// the whole predicate through the boxed getter, so errors surface exactly
// as the interpreter raises them.
//
// neg asks for the kernel of NOT e. Negation is pushed down to the leaves,
// which is exact under SQL's three-valued logic: De Morgan's laws hold,
// and a leaf under NOT flips its comparison (or its IN/BETWEEN/LIKE/IS
// NULL negation) while a NULL leaf stays NULL either way. Only TRUE rows
// are selected, so the compiled tree needs no NULL/FALSE distinction.
func compileKernel(e Expr, table *dataset.Table, neg bool) (kernel, bool) {
	if v, ok := constantValue(e); ok {
		switch {
		case v.IsNull():
			return never, true
		case v.Kind != dataset.KindBool:
			return kernel{}, false
		case v.B != neg:
			return always, true
		default:
			return never, true
		}
	}
	switch x := e.(type) {
	case *ColumnRef:
		col := column(table, x.Name)
		if col == nil || col.Def.Kind != dataset.KindBool {
			return kernel{}, false
		}
		bools, nulls := col.Bools, col.NullBitmap()
		return leaf(func(r int) bool { return !bitmapNull(nulls, r) && bools[r] != neg })
	case *Unary:
		if x.Op != "NOT" {
			return kernel{}, false
		}
		return compileKernel(x.X, table, !neg)
	case *Binary:
		if x.Op == "AND" || x.Op == "OR" {
			return compileLogical(x, table, neg)
		}
		m, ok := maskOf(x.Op)
		if !ok {
			return kernel{}, false
		}
		if neg {
			m = m.negate()
		}
		return compileComparison(m, x.L, x.R, table)
	case *Between:
		return compileBetween(x, table, x.Neg != neg)
	case *InList:
		return compileIn(x, table, x.Neg != neg)
	case *Like:
		col := column(table, columnName(x.X))
		p, ok := constantValue(x.Pattern)
		if col == nil || col.Def.Kind != dataset.KindString || !ok {
			return kernel{}, false
		}
		if p.IsNull() {
			return never, true
		}
		strs, nulls, pat, negate := col.Strs, col.NullBitmap(), p.String(), x.Neg != neg
		return leaf(func(r int) bool { return !bitmapNull(nulls, r) && likeMatch(strs[r], pat) != negate })
	case *IsNull:
		col := column(table, columnName(x.X))
		if col == nil {
			return kernel{}, false
		}
		nulls, negate := col.NullBitmap(), x.Neg != neg
		return leaf(func(r int) bool { return bitmapNull(nulls, r) != negate })
	}
	return kernel{}, false
}

// compileLogical compiles an AND/OR chain over its flattened operands;
// under negation AND and OR trade places. A conjunction filters the
// selection vector through each operand in turn; a disjunction tests
// row by row.
func compileLogical(x *Binary, table *dataset.Table, neg bool) (kernel, bool) {
	var ops []kernel
	var flatten func(e Expr) bool
	flatten = func(e Expr) bool {
		if b, ok := e.(*Binary); ok && b.Op == x.Op {
			return flatten(b.L) && flatten(b.R)
		}
		k, ok := compileKernel(e, table, neg)
		ops = append(ops, k)
		return ok
	}
	if !flatten(x) {
		return kernel{}, false
	}
	if (x.Op == "AND") != neg { // every operand must be TRUE
		return kernel{
			test: func(r int) bool {
				for _, k := range ops {
					if !k.test(r) {
						return false
					}
				}
				return true
			},
			batch: func(sel []int) []int {
				for _, k := range ops {
					sel = k.filter(sel)
				}
				return sel
			},
		}, true
	}
	return leaf(func(r int) bool {
		for _, k := range ops {
			if k.test(r) {
				return true
			}
		}
		return false
	})
}

// cmpMask is a comparison operator as the set of three-way
// dataset.Compare results it accepts: bit c+1 for result c. Negating an
// operator complements the set; swapping its operands mirrors it.
type cmpMask uint8

func maskOf(op string) (cmpMask, bool) {
	switch op {
	case "<":
		return 0b001, true
	case "<=":
		return 0b011, true
	case "=":
		return 0b010, true
	case "!=":
		return 0b101, true
	case ">":
		return 0b100, true
	case ">=":
		return 0b110, true
	}
	return 0, false
}

func (m cmpMask) negate() cmpMask    { return m ^ 0b111 }
func (m cmpMask) mirror() cmpMask    { return m&0b010 | m>>2&1 | m&1<<2 }
func (m cmpMask) accepts(c int) bool { return m>>uint(c+1)&1 == 1 }

// lookup spells the mask out as keep[c+1] = 1 for each accepted Compare
// result c, so the batch kernel turns a comparison into an output-cursor
// increment with no data-dependent branch.
func (m cmpMask) lookup() (keep [4]int) {
	for c := -1; c <= 1; c++ {
		keep[c+1] = b2i(m.accepts(c))
	}
	return keep
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cmpFloat is dataset.Compare on two numeric values (NaN compares equal
// to everything, as there).
func cmpFloat(a, b float64) int { return b2i(a > b) - b2i(a < b) }

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// compileComparison builds the kernel of a column compared with a
// constant of a comparable kind: both numeric (int, float and bool
// compare as float64, like dataset.Compare) or both strings. A numeric
// column — the range-box shape of exploration queries — gets a
// branch-free batch kernel.
func compileComparison(m cmpMask, l, r Expr, table *dataset.Table) (kernel, bool) {
	col := column(table, columnName(l))
	if col == nil { // constant op column: mirror to column op constant
		col, r, m = column(table, columnName(r)), l, m.mirror()
	}
	c, ok := constantValue(r)
	num := col != nil && numericKind(col.Def.Kind)
	switch {
	case col == nil || !ok:
		return kernel{}, false
	case c.IsNull():
		return never, true
	case numericKind(c.Kind) != num:
		return kernel{}, false
	}
	nulls := col.NullBitmap()
	if !num {
		strs, cs := col.Strs, c.S
		return leaf(func(i int) bool { return !bitmapNull(nulls, i) && m.accepts(cmpString(strs[i], cs)) })
	}
	vals, _, _ := col.NumericView()
	cf, _ := c.AsFloat()
	return kernel{
		test: func(i int) bool { return !bitmapNull(nulls, i) && m.accepts(cmpFloat(vals[i], cf)) },
		batch: func(sel []int) []int {
			keep := m.lookup()
			n := 0
			for _, r := range sel {
				v := vals[r]
				sel[n] = r
				n += keep[(1+cmpFloat(v, cf))&3] &^ nullBit(nulls, r)
			}
			return sel[:n]
		},
	}, true
}

// nullBit is bitmapNull as 0 or 1.
func nullBit(nulls []uint64, r int) int {
	if w := r >> 6; w < len(nulls) {
		return int(nulls[w]>>(uint(r)&63)) & 1
	}
	return 0
}

// compileBetween builds `col [NOT] BETWEEN lo AND hi` over constant
// bounds of the column's kind family; negate is the effective NOT.
func compileBetween(x *Between, table *dataset.Table, negate bool) (kernel, bool) {
	col := column(table, columnName(x.X))
	lo, okLo := constantValue(x.Lo)
	hi, okHi := constantValue(x.Hi)
	if col == nil || !okLo || !okHi {
		return kernel{}, false
	}
	if lo.IsNull() || hi.IsNull() {
		return never, true
	}
	num := numericKind(col.Def.Kind)
	if numericKind(lo.Kind) != num || numericKind(hi.Kind) != num {
		return kernel{}, false
	}
	nulls := col.NullBitmap()
	if num {
		vals, _, _ := col.NumericView()
		lf, _ := lo.AsFloat()
		hf, _ := hi.AsFloat()
		return leaf(func(r int) bool {
			v := vals[r]
			return !bitmapNull(nulls, r) && (cmpFloat(v, lf) >= 0 && cmpFloat(v, hf) <= 0) != negate
		})
	}
	strs := col.Strs
	return leaf(func(r int) bool {
		s := strs[r]
		return !bitmapNull(nulls, r) && (s >= lo.S && s <= hi.S) != negate
	})
}

// compileIn builds `col [NOT] IN (constants)`. As in the boxed IN, list
// elements of the other kind family never match, and a NULL element makes
// a non-matching row NULL rather than FALSE.
func compileIn(x *InList, table *dataset.Table, negate bool) (kernel, bool) {
	col := column(table, columnName(x.X))
	if col == nil {
		return kernel{}, false
	}
	num := numericKind(col.Def.Kind)
	var floats []float64
	var strs []string
	sawNull := false
	for _, e := range x.List {
		v, ok := constantValue(e)
		switch {
		case !ok:
			return kernel{}, false
		case v.IsNull():
			sawNull = true
		case numericKind(v.Kind) != num:
		case num:
			f, _ := v.AsFloat()
			floats = append(floats, f)
		default:
			strs = append(strs, v.S)
		}
	}
	nulls := col.NullBitmap()
	// A matching row is TRUE for IN; a non-matching one is TRUE only for
	// NOT IN over a list without NULLs.
	onMiss := negate && !sawNull
	if num {
		vals, _, _ := col.NumericView()
		return leaf(func(r int) bool {
			if bitmapNull(nulls, r) {
				return false
			}
			for _, f := range floats {
				if cmpFloat(vals[r], f) == 0 {
					return !negate
				}
			}
			return onMiss
		})
	}
	cells := col.Strs
	return leaf(func(r int) bool {
		if bitmapNull(nulls, r) {
			return false
		}
		for _, s := range strs {
			if cells[r] == s {
				return !negate
			}
		}
		return onMiss
	})
}

// constantValue evaluates an expression that references no column, or
// reports ok=false when it does or when its evaluation fails.
func constantValue(e Expr) (dataset.Value, bool) {
	noColumns := &compiler{bindNode: func(e Expr) (getter, bool, error) {
		if ref, ok := e.(*ColumnRef); ok {
			return nil, false, fmt.Errorf("sql: column %q in a constant", ref.Name)
		}
		return nil, false, nil
	}}
	g, err := noColumns.compile(e)
	if err != nil {
		return dataset.Null, false
	}
	v, err := g(0)
	return v, err == nil
}

// column resolves a bare column reference against table (nil when the
// name is empty, the table is nil or the column unknown).
func column(table *dataset.Table, name string) *dataset.Column {
	if name == "" || table == nil {
		return nil
	}
	return table.Column(name)
}

// columnName returns the name e references when it is a bare column, "".
func columnName(e Expr) string {
	if ref, ok := e.(*ColumnRef); ok {
		return ref.Name
	}
	return ""
}

func numericKind(k dataset.Kind) bool {
	return k == dataset.KindInt || k == dataset.KindFloat || k == dataset.KindBool
}
