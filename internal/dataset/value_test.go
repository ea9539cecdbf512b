package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{Int(7), KindInt},
		{Float(3.5), KindFloat},
		{StringVal("x"), KindString},
		{Bool(true), KindBool},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("kind of %v = %v, want %v", c.v, c.v.Kind, c.kind)
		}
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misreports")
	}
}

func TestValueAsFloat(t *testing.T) {
	if f, ok := Int(4).AsFloat(); !ok || f != 4 {
		t.Errorf("Int(4).AsFloat() = %v, %v", f, ok)
	}
	if f, ok := Float(2.25).AsFloat(); !ok || f != 2.25 {
		t.Errorf("Float(2.25).AsFloat() = %v, %v", f, ok)
	}
	if f, ok := Bool(true).AsFloat(); !ok || f != 1 {
		t.Errorf("Bool(true).AsFloat() = %v, %v", f, ok)
	}
	if _, ok := StringVal("a").AsFloat(); ok {
		t.Error("string should not coerce to float")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("null should not coerce to float")
	}
}

func TestValueAsInt(t *testing.T) {
	if i, ok := Float(9.9).AsInt(); !ok || i != 9 {
		t.Errorf("Float(9.9).AsInt() = %v, %v; want truncation to 9", i, ok)
	}
	if i, ok := Int(-3).AsInt(); !ok || i != -3 {
		t.Errorf("Int(-3).AsInt() = %v, %v", i, ok)
	}
	if _, ok := StringVal("5").AsInt(); ok {
		t.Error("string should not silently coerce to int")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Int(42), "42"},
		{Float(1.5), "1.5"},
		{StringVal("hi"), "hi"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Bool(false), Bool(true), -1},
		{StringVal("a"), StringVal("b"), -1},
		{StringVal("b"), StringVal("b"), 0},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareFloatIntConsistency(t *testing.T) {
	f := func(a int32, b int32) bool {
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		return Compare(Float(float64(a)), Int(int64(b))) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseValue(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"", KindNull},
		{"12", KindInt},
		{"-4", KindInt},
		{"3.14", KindFloat},
		{"1e3", KindFloat},
		{"true", KindBool},
		{"hello", KindString},
		{"12abc", KindString},
	}
	for _, c := range cases {
		if got := parseValue(c.in).Kind; got != c.kind {
			t.Errorf("parseValue(%q).Kind = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		v := parseValue(Float(x).String())
		got, ok := v.AsFloat()
		return ok && got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
