package dataset

import (
	"reflect"
	"testing"
)

func liveSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		ColumnDef{Name: "cat", Kind: KindString, Role: RoleDimension},
		ColumnDef{Name: "n", Kind: KindInt, Role: RoleMeasure},
		ColumnDef{Name: "x", Kind: KindFloat, Role: RoleMeasure},
		ColumnDef{Name: "flag", Kind: KindBool, Role: RoleDimension},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWithAppendedLeavesReceiverUntouched(t *testing.T) {
	base := NewTable("t", liveSchema(t))
	base.MustAppendRow(StringVal("a"), Int(1), Float(0.5), Bool(true))
	base.MustAppendRow(StringVal("b"), Null, Float(1.5), Bool(false))
	snapshot := make([][]Value, base.NumRows())
	for i := range snapshot {
		snapshot[i] = base.Row(i)
	}

	next, err := base.WithAppended([][]Value{
		{StringVal("c"), Int(3), Null, Bool(true)},
		{Null, Int(4), Float(4.5), Null},
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.NumRows() != 2 || next.NumRows() != 4 {
		t.Fatalf("rows: base %d next %d, want 2 and 4", base.NumRows(), next.NumRows())
	}
	for i, want := range snapshot {
		if got := base.Row(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("base row %d changed: %v -> %v", i, want, got)
		}
	}
	// The appended rows land with nulls intact — and the base column's
	// bitmap does not grow (the clone copied it).
	if !next.Cols[2].IsNull(2) || !next.Cols[0].IsNull(3) || !next.Cols[3].IsNull(3) {
		t.Fatal("appended nulls lost")
	}
	if base.Cols[0].IsNull(3) {
		t.Fatal("base column sees the clone's null bitmap")
	}
	// Old rows read back identically through the new version.
	for i, want := range snapshot {
		if got := next.Row(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("next row %d differs from base: %v vs %v", i, got, want)
		}
	}
}

// TestWithAppendedForkIsolation: two appends from the same base must not
// see each other — the hazard is a shared backing array with spare
// capacity, which capacity-clamping in cloneForAppend prevents.
func TestWithAppendedForkIsolation(t *testing.T) {
	base := NewTable("t", liveSchema(t))
	for i := 0; i < 3; i++ {
		base.MustAppendRow(StringVal("a"), Int(int64(i)), Float(float64(i)), Bool(false))
	}
	left, err := base.WithAppended([][]Value{{StringVal("L"), Int(100), Float(100), Bool(true)}})
	if err != nil {
		t.Fatal(err)
	}
	right, err := base.WithAppended([][]Value{{StringVal("R"), Int(200), Float(200), Bool(false)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := left.Cols[0].Strs[3]; got != "L" {
		t.Fatalf("left fork row: %q, want L", got)
	}
	if got := right.Cols[0].Strs[3]; got != "R" {
		t.Fatalf("right fork row: %q, want R", got)
	}
}

func TestWithAppendedBadRow(t *testing.T) {
	base := NewTable("t", liveSchema(t))
	base.MustAppendRow(StringVal("a"), Int(1), Float(0.5), Bool(true))
	if _, err := base.WithAppended([][]Value{{StringVal("x"), Int(1)}}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := base.WithAppended([][]Value{{StringVal("x"), Int(1), Float(1), StringVal("notbool")}}); err == nil {
		t.Fatal("mistyped bool accepted")
	}
	if base.NumRows() != 1 {
		t.Fatalf("failed append mutated the base: %d rows", base.NumRows())
	}
}

func TestVersionCounterAndMemo(t *testing.T) {
	tbl := NewTable("t", liveSchema(t))
	v0 := tbl.Version()
	tbl.MustAppendRow(StringVal("a"), Int(1), Float(0.5), Bool(true))
	if tbl.Version() == v0 {
		t.Fatal("AppendRow did not bump the version")
	}
	type keyA struct{}
	type keyB struct{}
	calls := 0
	compute := func() any { calls++; return calls }
	h1 := tbl.Memo(keyA{}, compute)
	h2 := tbl.Memo(keyA{}, compute)
	if calls != 1 || h1 != h2 {
		t.Fatalf("unchanged table recomputed memo: %d calls", calls)
	}
	if b := tbl.Memo(keyB{}, compute); calls != 2 || b == h1 {
		t.Fatalf("distinct keys shared a memo entry: %d calls", calls)
	}
	next, err := tbl.WithAppended([][]Value{{StringVal("c"), Int(3), Float(2.5), Bool(true)}})
	if err != nil {
		t.Fatal(err)
	}
	if v := next.Memo(keyA{}, compute); calls != 3 || v == h1 {
		t.Fatalf("appended version inherited its parent's memo: %d calls", calls)
	}
	tbl.MustAppendRow(StringVal("b"), Int(2), Float(1.5), Bool(false))
	if h3 := tbl.Memo(keyA{}, compute); calls != 4 || h3 == h1 {
		t.Fatalf("mutation did not invalidate memo: %d calls", calls)
	}
	if err := AssignRoles(tbl, []string{"n"}, nil); err != nil {
		t.Fatal(err)
	}
	if tbl.Memo(keyA{}, compute); calls != 5 {
		t.Fatalf("AssignRoles did not invalidate memo: %d calls", calls)
	}
}
