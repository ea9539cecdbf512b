package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleCSV = `cat,n,x,flag
a,1,0.5,true
b,2,1.5,false
c,,2.5,true
`

func TestReadCSVInfersKinds(t *testing.T) {
	tab, err := ReadCSV("t", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := map[string]Kind{"cat": KindString, "n": KindInt, "x": KindFloat, "flag": KindBool}
	for name, kind := range wantKinds {
		def, ok := tab.Schema.Def(name)
		if !ok || def.Kind != kind {
			t.Errorf("column %q kind = %v, want %v", name, def.Kind, kind)
		}
	}
	if tab.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", tab.NumRows())
	}
	if !tab.Column("n").IsNull(2) {
		t.Error("empty cell should be NULL")
	}
}

func TestReadCSVEmptyBody(t *testing.T) {
	tab, err := ReadCSV("t", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 0 || tab.Schema.Len() != 2 {
		t.Errorf("got %d rows, %d cols", tab.NumRows(), tab.Schema.Len())
	}
}

func TestReadCSVRaggedRow(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Fatal("expected error for ragged row")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig, err := ReadCSV("t", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(orig, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != orig.NumRows() {
		t.Fatalf("round trip rows = %d, want %d", back.NumRows(), orig.NumRows())
	}
	for i := 0; i < orig.NumRows(); i++ {
		a, b := orig.Row(i), back.Row(i)
		for j := range a {
			if a[j].String() != b[j].String() && !(a[j].IsNull() && b[j].IsNull()) {
				t.Errorf("row %d col %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sample.csv")
	orig, err := ReadCSV("sample", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVFile(orig, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "sample" {
		t.Errorf("table name = %q, want sample", back.Name)
	}
	if back.NumRows() != 3 {
		t.Errorf("rows = %d, want 3", back.NumRows())
	}
}

func TestAssignRoles(t *testing.T) {
	tab, err := ReadCSV("t", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if err := AssignRoles(tab, []string{"cat", "flag"}, []string{"n", "x"}); err != nil {
		t.Fatal(err)
	}
	if got := tab.Schema.Dimensions(); len(got) != 2 {
		t.Errorf("dimensions = %v", got)
	}
	if got := tab.Schema.Measures(); len(got) != 2 {
		t.Errorf("measures = %v", got)
	}
	if err := AssignRoles(tab, []string{"missing"}, nil); err == nil {
		t.Error("expected error for unknown column")
	}
}

func TestReadCSVMixedIntFloatColumn(t *testing.T) {
	// First row says int, later rows are floats: they must coerce, not fail.
	tab, err := ReadCSV("t", strings.NewReader("v\n1\n2.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Column("v").Ints[1]; got != 2 {
		t.Errorf("coerced value = %d, want truncated 2", got)
	}
}

func TestReadCSVWithSchemaWholeFloat(t *testing.T) {
	// A float column whose first value is whole is written as "2"; the
	// sidecar's kind must win over the int that inference alone gives it.
	tab := NewTable("t", MustSchema(
		ColumnDef{Name: "cat", Kind: KindString, Role: RoleDimension},
		ColumnDef{Name: "m", Kind: KindFloat, Role: RoleMeasure}))
	tab.MustAppendRow(StringVal("a"), Float(2))
	tab.MustAppendRow(StringVal("b"), Float(2.5))
	m := roundTripWithSchema(t, tab).Column("m")
	if m.Def != tab.Column("m").Def || len(m.Floats) != 2 || m.Floats[0] != 2 || m.Floats[1] != 2.5 {
		t.Errorf("m = %v %v, want float measure [2 2.5]", m.Def, m.Floats)
	}
}

func TestReadCSVWithSchemaAllNullColumn(t *testing.T) {
	// A float column holding only NULLs is written as empty cells; the
	// sidecar's kind must win over the string that inference alone gives
	// a column with no non-empty cell.
	tab := NewTable("t", MustSchema(
		ColumnDef{Name: "cat", Kind: KindString, Role: RoleDimension},
		ColumnDef{Name: "m", Kind: KindFloat, Role: RoleMeasure}))
	tab.MustAppendRow(StringVal("a"), Null)
	tab.MustAppendRow(StringVal("b"), Null)
	m := roundTripWithSchema(t, tab).Column("m")
	if m.Def != tab.Column("m").Def || len(m.Floats) != 2 || !m.IsNull(0) || !m.IsNull(1) {
		t.Errorf("m = %v %v, want an all-NULL float measure of 2 rows", m.Def, m.Floats)
	}
}

func TestReadCSVWithSchemaEmptyTable(t *testing.T) {
	// Every column of an empty table has no non-empty cell, so every
	// column takes its kind from the sidecar.
	tab := NewTable("t", MustSchema(
		ColumnDef{Name: "cat", Kind: KindString, Role: RoleDimension},
		ColumnDef{Name: "n", Kind: KindInt, Role: RoleMeasure},
		ColumnDef{Name: "m", Kind: KindFloat, Role: RoleMeasure},
		ColumnDef{Name: "b", Kind: KindBool, Role: RoleOther}))
	back := roundTripWithSchema(t, tab)
	if back.NumRows() != 0 {
		t.Fatalf("%d rows, want 0", back.NumRows())
	}
	for i, def := range tab.Schema.Columns {
		if got := back.Schema.Columns[i]; got != def {
			t.Errorf("column %d = %v, want %v", i, got, def)
		}
	}
}

// roundTripWithSchema writes tab with its sidecar and loads it back.
func roundTripWithSchema(t *testing.T, tab *Table) *Table {
	t.Helper()
	path := filepath.Join(t.TempDir(), tab.Name+".csv")
	if err := WriteCSVWithSchema(tab, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVWithSchema(path)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestReadCSVWithSchemaKindMismatch(t *testing.T) {
	// Every other disagreement between the first cell and the sidecar is
	// still an error.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("m\n2.5\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sidecar := `{"version":1,"table":"t","columns":[{"name":"m","kind":"int","role":"measure"}]}`
	if err := os.WriteFile(filepath.Join(dir, "t.schema.json"), []byte(sidecar), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCSVWithSchema(path)
	if want := `dataset: column "m" is float in the data but int in the sidecar`; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
}

func TestReadCSVRaggedRowPosition(t *testing.T) {
	// The second record spans lines 3-4 (a quoted newline), so the ragged
	// third record sits on line 5.
	_, err := ReadCSV("t", strings.NewReader("a,b\n1,2\n\"x\ny\",3\n4\n"))
	if want := "dataset: csv row 3 (line 5) has 1 fields, header has 2"; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
}

func TestReadCSVAllocsPerRow(t *testing.T) {
	// Each record costs csv.Reader's one string; the typed columns grow by
	// doubling and the parse blocks are reused, so an all-numeric table
	// stays within two mallocs per row (the boxed loader took ~32).
	const rows = 20_000
	var buf bytes.Buffer
	if err := WriteCSV(GenerateSYN(SYNConfig{Rows: rows, Seed: 1}), &buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadCSV("syn", bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 2 {
		t.Errorf("%.2f mallocs per row, want at most 2", perRow)
	}
}

// BenchmarkLoadCSV loads SYN 200k with its sidecar, the way LoadCSV does.
func BenchmarkLoadCSV(b *testing.B) {
	path := filepath.Join(b.TempDir(), "syn.csv")
	if err := WriteCSVWithSchema(GenerateSYN(SYNConfig{Rows: 200_000, Seed: 1}), path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSVWithSchema(path); err != nil {
			b.Fatal(err)
		}
	}
}
