package dataset

import (
	"fmt"
	"strconv"
)

// Kind enumerates the runtime types a Value can carry.
type Kind int

// The supported value kinds. Null is the zero value so an uninitialised
// Value is a SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed scalar used at the row level by the SQL
// engine and by CSV import. Columns store data unboxed; Value is only
// materialised at cell granularity.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// String wraps a string. The name collides with fmt.Stringer on purpose:
// dataset.StringVal is the constructor, Value.String the formatter.
func StringVal(s string) Value { return Value{Kind: KindString, S: s} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat coerces numeric values to float64. Booleans coerce to 0/1.
// It returns false when the value has no numeric interpretation.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsInt coerces numeric values to int64, truncating floats.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// String renders the value the way the CSV writer and the REPL print it.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		return strconv.FormatBool(v.B)
	default:
		return "?"
	}
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare numerically across int/float/bool; strings compare
// lexicographically. Cross-kind comparisons between string and numeric
// compare the kind tags so sorting is total and deterministic.
func Compare(a, b Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind == KindString && b.Kind == KindString {
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	}
	// Mixed string/numeric: order by kind tag for a stable total order.
	switch {
	case a.Kind < b.Kind:
		return -1
	case a.Kind > b.Kind:
		return 1
	default:
		return 0
	}
}

// parseValue infers the most specific kind for a CSV token: int, then
// float, then bool, then string. Empty strings parse as NULL.
func parseValue(s string) Value {
	if s == "" {
		return Null
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return Bool(b)
	}
	return StringVal(s)
}
