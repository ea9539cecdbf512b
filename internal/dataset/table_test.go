package dataset

import (
	"math"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		ColumnDef{Name: "cat", Kind: KindString, Role: RoleDimension},
		ColumnDef{Name: "n", Kind: KindInt, Role: RoleMeasure},
		ColumnDef{Name: "x", Kind: KindFloat, Role: RoleMeasure},
	)
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Index("n") != 1 || s.Index("missing") != -1 {
		t.Error("Index lookup wrong")
	}
	if d, ok := s.Def("x"); !ok || d.Kind != KindFloat {
		t.Error("Def lookup wrong")
	}
	if got := s.Dimensions(); len(got) != 1 || got[0] != "cat" {
		t.Errorf("Dimensions = %v", got)
	}
	if got := s.Measures(); len(got) != 2 || got[0] != "n" || got[1] != "x" {
		t.Errorf("Measures = %v", got)
	}
}

func TestSchemaDuplicateName(t *testing.T) {
	_, err := NewSchema(
		ColumnDef{Name: "a", Kind: KindInt},
		ColumnDef{Name: "a", Kind: KindInt},
	)
	if err == nil {
		t.Fatal("expected error for duplicate column name")
	}
}

func TestSchemaEmptyName(t *testing.T) {
	if _, err := NewSchema(ColumnDef{Name: "", Kind: KindInt}); err == nil {
		t.Fatal("expected error for empty column name")
	}
}

func TestTableAppendAndRead(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	if err := tab.AppendRow(StringVal("a"), Int(1), Float(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRow(StringVal("b"), Int(2), Float(1.5)); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tab.NumRows())
	}
	row := tab.Row(1)
	if row[0].S != "b" || row[1].I != 2 || row[2].F != 1.5 {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestTableAppendArity(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	if err := tab.AppendRow(StringVal("a")); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestTableAppendTypeMismatch(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	if err := tab.AppendRow(StringVal("a"), StringVal("not-int"), Float(0)); err == nil {
		t.Fatal("expected type error storing string in int column")
	}
}

func TestTableNullHandling(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	if err := tab.AppendRow(Null, Null, Null); err != nil {
		t.Fatal(err)
	}
	row := tab.Row(0)
	for i, v := range row {
		if !v.IsNull() {
			t.Errorf("cell %d = %v, want NULL", i, v)
		}
	}
	if _, ok := tab.Column("x").Float(0); ok {
		t.Error("Float on NULL cell should report !ok")
	}
}

func TestTableNumericCoercionOnAppend(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	// Float into int column truncates; int into float column widens.
	if err := tab.AppendRow(StringVal("a"), Float(7.9), Int(3)); err != nil {
		t.Fatal(err)
	}
	if got := tab.Column("n").Ints[0]; got != 7 {
		t.Errorf("int column stored %d, want 7", got)
	}
	if got := tab.Column("x").Floats[0]; got != 3 {
		t.Errorf("float column stored %v, want 3", got)
	}
}

func TestTableSubset(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	for i := 0; i < 5; i++ {
		tab.MustAppendRow(StringVal(string(rune('a'+i))), Int(int64(i)), Float(float64(i)))
	}
	sub := tab.Subset("sub", []int{4, 0, 2})
	if sub.NumRows() != 3 {
		t.Fatalf("NumRows = %d", sub.NumRows())
	}
	if sub.Column("n").Ints[0] != 4 || sub.Column("n").Ints[1] != 0 || sub.Column("n").Ints[2] != 2 {
		t.Errorf("subset rows wrong: %v", sub.Column("n").Ints)
	}
}

func TestDistinctValues(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	for _, s := range []string{"b", "a", "b", "c", "a"} {
		tab.MustAppendRow(StringVal(s), Int(0), Float(0))
	}
	got, err := tab.DistinctValues("cat")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("distinct = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distinct = %v, want %v", got, want)
		}
	}
	if _, err := tab.DistinctValues("nope"); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestNumericRange(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	tab.MustAppendRow(StringVal("a"), Int(5), Float(-1.5))
	tab.MustAppendRow(StringVal("b"), Int(-2), Float(9.25))
	lo, hi, ok := tab.NumericRange("x")
	if !ok || lo != -1.5 || hi != 9.25 {
		t.Errorf("NumericRange(x) = %v, %v, %v", lo, hi, ok)
	}
	if _, _, ok := tab.NumericRange("cat"); ok {
		t.Error("string column should have no numeric range")
	}
	if _, _, ok := tab.NumericRange("missing"); ok {
		t.Error("missing column should have no numeric range")
	}
}

func TestSampleRows(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	for i := 0; i < 100; i++ {
		tab.MustAppendRow(StringVal("a"), Int(int64(i)), Float(0))
	}
	s := tab.SampleRows(0.1)
	if len(s) != 10 {
		t.Fatalf("sample size = %d, want 10", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatal("sample indices must be strictly increasing")
		}
	}
	if got := tab.SampleRows(1.0); len(got) != 100 {
		t.Errorf("alpha=1 sample = %d rows, want all", len(got))
	}
	if got := tab.SampleRows(0); got != nil {
		t.Errorf("alpha=0 sample = %v, want nil", got)
	}
	if got := tab.SampleRows(0.001); len(got) != 1 {
		t.Errorf("tiny alpha should clamp to 1 row, got %d", len(got))
	}
}

func TestSampleRowsCoverage(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	for i := 0; i < 1000; i++ {
		tab.MustAppendRow(StringVal("a"), Int(int64(i)), Float(0))
	}
	s := tab.SampleRows(0.05)
	// Stride sampling must cover the whole index range, not just a prefix.
	if s[len(s)-1] < 900 {
		t.Errorf("sample does not reach tail: last index %d", s[len(s)-1])
	}
	if math.Abs(float64(len(s))-50) > 1 {
		t.Errorf("sample size = %d, want ~50", len(s))
	}
}

func TestGroupKeyNulls(t *testing.T) {
	tab := NewTable("t", testSchema(t))
	tab.MustAppendRow(Null, Int(0), Float(0))
	tab.MustAppendRow(Null, Int(1), Float(0))
	c := tab.Column("cat")
	if c.GroupKey(0) != c.GroupKey(1) {
		t.Error("NULLs must share a group key")
	}
	tab.MustAppendRow(StringVal("x"), Int(2), Float(0))
	if c.GroupKey(0) == c.GroupKey(2) {
		t.Error("NULL key must differ from value keys")
	}
}

func TestNumericRangeSkipsNaN(t *testing.T) {
	schema := MustSchema(ColumnDef{Name: "x", Kind: KindFloat})
	tbl := NewTable("t", schema)
	for _, v := range []Value{Float(math.NaN()), Float(2), Null, Float(-1), Float(math.NaN())} {
		tbl.MustAppendRow(v)
	}
	if lo, hi, ok := tbl.NumericRange("x"); !ok || lo != -1 || hi != 2 {
		t.Fatalf("NumericRange = %v, %v, %v; want -1, 2, true", lo, hi, ok)
	}
	allNaN := NewTable("n", schema)
	allNaN.MustAppendRow(Float(math.NaN()))
	if lo, hi, ok := allNaN.NumericRange("x"); ok {
		t.Fatalf("all-NaN column reported range [%v, %v]", lo, hi)
	}
}
