package sql

import (
	"fmt"
	"strconv"
	"strings"

	"viewseeker/internal/dataset"
)

// Parse parses one SELECT statement. A trailing semicolon is allowed.
func Parse(query string) (*SelectStmt, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == tokOp && p.peek().Text == ";" {
		p.next()
	}
	if p.peek().Kind != tokEOF {
		return nil, fmt.Errorf("sql: unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token   { return p.toks[p.pos] }
func (p *parser) next() token   { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) save() int     { return p.pos }
func (p *parser) restore(s int) { p.pos = s }

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == tokKeyword && t.Text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sql: expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.Kind == tokOp && t.Text == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("sql: expected %q, found %s", op, p.peek())
	}
	return nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		t := p.peek()
		if t.Kind != tokIdent {
			return nil, fmt.Errorf("sql: expected table name after FROM, found %s", t)
		}
		stmt.From = p.next().Text
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.peek()
		if t.Kind != tokNumber {
			return nil, fmt.Errorf("sql: expected number after LIMIT, found %s", t)
		}
		p.next()
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sql: invalid LIMIT %q", t.Text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t := p.peek()
		if t.Kind != tokIdent {
			return SelectItem{}, fmt.Errorf("sql: expected alias after AS, found %s", t)
		}
		item.Alias = p.next().Text
	} else if t := p.peek(); t.Kind == tokIdent {
		// Bare alias: SELECT count(*) n FROM ...
		item.Alias = p.next().Text
	}
	return item, nil
}

// Expression grammar, lowest to highest precedence:
//
//	expr    = orExpr
//	orExpr  = andExpr { OR andExpr }
//	andExpr = notExpr { AND notExpr }
//	notExpr = [NOT] predicate
//	predicate = addExpr [ compOp addExpr | [NOT] IN (...) |
//	            [NOT] BETWEEN addExpr AND addExpr | IS [NOT] NULL |
//	            [NOT] LIKE addExpr ]
//	addExpr = mulExpr { (+|-) mulExpr }
//	mulExpr = unary { (*|/|%) unary }
//	unary   = [-] primary
//	primary = literal | column | func(...) | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	neg := false
	if t := p.peek(); t.Kind == tokKeyword && t.Text == "NOT" {
		// Lookahead for NOT IN / NOT BETWEEN / NOT LIKE; a bare NOT here
		// belongs to a boolean context and is not ours.
		s := p.save()
		p.next()
		if t2 := p.peek(); t2.Kind == tokKeyword && (t2.Text == "IN" || t2.Text == "BETWEEN" || t2.Text == "LIKE") {
			neg = true
		} else {
			p.restore(s)
		}
	}
	switch t := p.peek(); {
	case t.Kind == tokOp && isCompareOp(t.Text):
		if neg {
			return nil, fmt.Errorf("sql: unexpected NOT before %q", t.Text)
		}
		p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		op := t.Text
		if op == "<>" {
			op = "!="
		}
		return &Binary{Op: op, L: l, R: r}, nil
	case t.Kind == tokKeyword && t.Text == "IN":
		p.next()
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InList{X: l, List: list, Neg: neg}, nil
	case t.Kind == tokKeyword && t.Text == "BETWEEN":
		p.next()
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Neg: neg}, nil
	case t.Kind == tokKeyword && t.Text == "LIKE":
		p.next()
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Pattern: pat, Neg: neg}, nil
	case t.Kind == tokKeyword && t.Text == "IS":
		if neg {
			return nil, fmt.Errorf("sql: unexpected NOT before IS")
		}
		p.next()
		isNeg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Neg: isNeg}, nil
	default:
		if neg {
			return nil, fmt.Errorf("sql: dangling NOT near %s", t)
		}
		return l, nil
	}
}

func isCompareOp(op string) bool {
	switch op {
	case "=", "!=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != tokOp || (t.Text != "+" && t.Text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Text, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != tokOp || (t.Text != "*" && t.Text != "/" && t.Text != "%") {
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Text, L: l, R: r}
	}
}

// parseCase parses a searched CASE expression; the CASE keyword is still
// pending when called.
func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &Case{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		result, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Result: result})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE needs at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: invalid number %q", t.Text)
			}
			return &Literal{Val: dataset.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: invalid number %q", t.Text)
		}
		return &Literal{Val: dataset.Int(i)}, nil
	case tokString:
		p.next()
		return &Literal{Val: dataset.StringVal(t.Text)}, nil
	case tokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Val: dataset.Null}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: dataset.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: dataset.Bool(false)}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, fmt.Errorf("sql: unexpected keyword %s in expression", t)
	case tokIdent:
		p.next()
		if p.acceptOp("(") {
			call := &Call{Func: strings.ToUpper(t.Text)}
			if p.acceptOp("*") {
				call.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.acceptOp(")") {
				return call, nil
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &ColumnRef{Name: t.Text}, nil
	case tokOp:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected %s in expression", t)
}
