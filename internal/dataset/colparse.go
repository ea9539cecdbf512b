package dataset

import (
	"math"
	"strconv"
)

// appendTokens appends text cells to the column in order, "" as NULL.
// Every other token is parsed straight into the typed slice — ParseFloat
// for a float column, ParseInt for an int column, the token itself for a
// string column — with no Value boxing. A token the direct parse rejects,
// or would read differently from parseValue, goes through coerceCell and
// Append instead, so every coercion and every error is the boxed path's.
// On error it returns the index of the failing token, with the tokens
// before it stored; otherwise len(toks).
func (c *Column) appendTokens(toks []string) (int, error) {
	for i, tok := range toks {
		if tok != "" && c.appendParsed(tok) {
			continue
		}
		if err := c.Append(coerceCell(tok, c.Def.Kind)); err != nil {
			return i, err
		}
	}
	return len(toks), nil
}

// appendParsed stores a non-empty token when its direct parse gives the
// cell coerceCell would, and reports whether it did.
func (c *Column) appendParsed(tok string) bool {
	switch c.Def.Kind {
	case KindFloat:
		f, err := strconv.ParseFloat(tok, 64)
		// parseValue tries ParseInt first, which reads "-0" as +0.
		if err != nil || f == 0 && math.Signbit(f) {
			return false
		}
		c.Floats = append(c.Floats, f)
	case KindInt:
		i, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return false
		}
		c.Ints = append(c.Ints, i)
	case KindString:
		c.Strs = append(c.Strs, tok)
	case KindBool:
		// "1" and "0" are ints to parseValue, which a bool column rejects.
		b, err := strconv.ParseBool(tok)
		if err != nil || tok == "1" || tok == "0" {
			return false
		}
		c.Bools = append(c.Bools, b)
	default:
		return false
	}
	return true
}

// coerceCell boxes a CSV token for a column of the given kind: "" is
// NULL, and a token of another kind is converted where Column.Append
// would not convert it itself.
func coerceCell(cell string, kind Kind) Value {
	if cell == "" {
		return Null
	}
	v := parseValue(cell)
	if v.Kind == kind {
		return v
	}
	switch kind {
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f)
		}
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return Int(i)
		}
	case KindString:
		return StringVal(cell)
	}
	// Fall back to the literal string; Column.Append will reject true
	// mismatches with a useful error.
	return v
}

// nullsAs returns a column of the given kind holding as many cells as c,
// all NULL. c must hold only NULLs.
func (c *Column) nullsAs(kind Kind) *Column {
	def := c.Def
	def.Kind = kind
	out := newColumn(def)
	for i := c.Len(); i > 0; i-- {
		out.Append(Null) // a NULL fits every kind
	}
	return out
}
