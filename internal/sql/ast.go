package sql

import (
	"fmt"
	"strings"

	"viewseeker/internal/dataset"
)

// Expr is any SQL expression node. String renders a canonical form used
// both for error messages and for matching SELECT expressions against
// GROUP BY expressions.
type Expr interface {
	String() string
}

// Literal is a constant value.
type Literal struct{ Val dataset.Value }

func (l *Literal) String() string {
	if l.Val.Kind == dataset.KindString {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}

// ColumnRef names a table column.
type ColumnRef struct{ Name string }

func (c *ColumnRef) String() string { return quoteIdent(c.Name) }

// quoteIdent renders an identifier, double-quoting it when it would not
// survive re-lexing bare (spaces, punctuation, keyword collision, leading
// digit, empty).
func quoteIdent(name string) string {
	plain := name != ""
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if isIdentPart(ch) && (i > 0 || isIdentStart(ch)) {
			continue
		}
		plain = false
		break
	}
	if plain && keywords[strings.ToUpper(name)] {
		plain = false
	}
	if plain {
		return name
	}
	return `"` + name + `"`
}

// Unary is NOT x or -x.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (u *Unary) String() string {
	if u.Op == "NOT" {
		return "NOT " + u.X.String()
	}
	return "(" + u.Op + u.X.String() + ")"
}

// Binary is a two-operand operator: arithmetic (+ - * / %), comparison
// (= != <> < <= > >=) or logical (AND OR).
type Binary struct {
	Op   string
	L, R Expr
}

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// Call is a function application: aggregate or scalar. Star marks
// COUNT(*).
type Call struct {
	Func string // upper-cased
	Args []Expr
	Star bool
}

func (c *Call) String() string {
	if c.Star {
		return c.Func + "(*)"
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Func + "(" + strings.Join(parts, ", ") + ")"
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Neg  bool
}

func (e *InList) String() string {
	parts := make([]string, len(e.List))
	for i, a := range e.List {
		parts[i] = a.String()
	}
	op := " IN "
	if e.Neg {
		op = " NOT IN "
	}
	return "(" + e.X.String() + op + "(" + strings.Join(parts, ", ") + "))"
}

// Between is x [NOT] BETWEEN lo AND hi (inclusive).
type Between struct {
	X, Lo, Hi Expr
	Neg       bool
}

func (e *Between) String() string {
	op := " BETWEEN "
	if e.Neg {
		op = " NOT BETWEEN "
	}
	return "(" + e.X.String() + op + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Neg bool
}

func (e *IsNull) String() string {
	if e.Neg {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

// Like is x [NOT] LIKE pattern, with % and _ wildcards.
type Like struct {
	X, Pattern Expr
	Neg        bool
}

func (e *Like) String() string {
	op := " LIKE "
	if e.Neg {
		op = " NOT LIKE "
	}
	return "(" + e.X.String() + op + e.Pattern.String() + ")"
}

// Case is a searched CASE expression:
// CASE WHEN cond THEN result [WHEN ...] [ELSE result] END.
type Case struct {
	Whens []When
	Else  Expr // nil means ELSE NULL
}

// When is one WHEN/THEN arm of a Case.
type When struct {
	Cond, Result Expr
}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// SelectItem is one projection: an expression with an optional alias, or
// the * wildcard.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// OutputName returns the column name the item produces.
func (s SelectItem) OutputName() string {
	if s.Alias != "" {
		return s.Alias
	}
	if ref, ok := s.Expr.(*ColumnRef); ok {
		return ref.Name
	}
	return s.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     string // empty for table-less SELECT (e.g. SELECT 1+1)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// String renders the statement canonically.
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		if it.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + quoteIdent(it.Alias))
		}
	}
	if s.From != "" {
		sb.WriteString(" FROM " + quoteIdent(s.From))
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
	}
	return sb.String()
}

// aggregateFuncs is the set of aggregate function names.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"VARIANCE": true, "STDDEV": true,
}

// isAggregateCall reports whether the expression is a direct aggregate
// function call.
func isAggregateCall(e Expr) bool {
	c, ok := e.(*Call)
	return ok && aggregateFuncs[c.Func]
}

// ContainsAggregate reports whether any node of the expression is an
// aggregate call.
func ContainsAggregate(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *Literal, *ColumnRef:
		return false
	case *Unary:
		return ContainsAggregate(x.X)
	case *Binary:
		return ContainsAggregate(x.L) || ContainsAggregate(x.R)
	case *Call:
		if aggregateFuncs[x.Func] {
			return true
		}
		for _, a := range x.Args {
			if ContainsAggregate(a) {
				return true
			}
		}
		return false
	case *InList:
		if ContainsAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if ContainsAggregate(a) {
				return true
			}
		}
		return false
	case *Between:
		return ContainsAggregate(x.X) || ContainsAggregate(x.Lo) || ContainsAggregate(x.Hi)
	case *IsNull:
		return ContainsAggregate(x.X)
	case *Like:
		return ContainsAggregate(x.X) || ContainsAggregate(x.Pattern)
	case *Case:
		for _, w := range x.Whens {
			if ContainsAggregate(w.Cond) || ContainsAggregate(w.Result) {
				return true
			}
		}
		return ContainsAggregate(x.Else)
	default:
		return false
	}
}
