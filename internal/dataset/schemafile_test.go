package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSchemaSidecarRoundTrip(t *testing.T) {
	orig := GenerateDIAB(DIABConfig{Rows: 100, Seed: 1})
	dir := t.TempDir()
	path := filepath.Join(dir, "diab.csv")
	if err := WriteCSVWithSchema(orig, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVWithSchema(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "diab" {
		t.Errorf("table name = %q", back.Name)
	}
	if got := back.Schema.Dimensions(); len(got) != 7 {
		t.Errorf("dimensions = %v", got)
	}
	if got := back.Schema.Measures(); len(got) != 8 {
		t.Errorf("measures = %v", got)
	}
}

func TestReadCSVWithSchemaNoSidecar(t *testing.T) {
	orig := GenerateDIAB(DIABConfig{Rows: 50, Seed: 1})
	dir := t.TempDir()
	path := filepath.Join(dir, "plain.csv")
	if err := writeCSVFile(orig, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVWithSchema(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Schema.Dimensions()) != 0 {
		t.Error("without a sidecar roles default to other")
	}
}

func TestApplySchemaValidation(t *testing.T) {
	tab := GenerateDIAB(DIABConfig{Rows: 20, Seed: 1})
	var buf bytes.Buffer
	if err := writeSchema(tab, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	// Unknown column.
	bad := strings.Replace(good, `"name": "race"`, `"name": "ghost"`, 1)
	if err := ApplySchema(tab, strings.NewReader(bad)); err == nil {
		t.Error("unknown column should fail")
	}
	// Kind drift.
	bad = strings.Replace(good, `"kind": "string"`, `"kind": "float"`, 1)
	if err := ApplySchema(tab, strings.NewReader(bad)); err == nil {
		t.Error("kind mismatch should fail")
	}
	// Unknown role.
	bad = strings.Replace(good, `"role": "dimension"`, `"role": "wizard"`, 1)
	if err := ApplySchema(tab, strings.NewReader(bad)); err == nil {
		t.Error("unknown role should fail")
	}
	// Wrong version.
	bad = strings.Replace(good, `"version": 1`, `"version": 9`, 1)
	if err := ApplySchema(tab, strings.NewReader(bad)); err == nil {
		t.Error("wrong version should fail")
	}
	// Corrupt JSON.
	if err := ApplySchema(tab, strings.NewReader("{nope")); err == nil {
		t.Error("corrupt sidecar should fail")
	}
	// The pristine sidecar applies cleanly.
	if err := ApplySchema(tab, strings.NewReader(good)); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	orig := GenerateDIAB(DIABConfig{Rows: 300, Seed: 9})
	// Sprinkle NULLs via a fresh table copy to exercise null encoding.
	withNulls := NewTable("diab", orig.Schema)
	for i := 0; i < orig.NumRows(); i++ {
		row := orig.Row(i)
		if i%7 == 0 {
			row[8] = Null // a measure column
		}
		if err := withNulls.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(withNulls, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "diab" || back.NumRows() != withNulls.NumRows() {
		t.Fatalf("name=%q rows=%d", back.Name, back.NumRows())
	}
	if len(back.Schema.Dimensions()) != 7 || len(back.Schema.Measures()) != 8 {
		t.Error("roles lost in binary round trip")
	}
	for i := 0; i < back.NumRows(); i++ {
		a, b := withNulls.Row(i), back.Row(i)
		for j := range a {
			if a[j].IsNull() != b[j].IsNull() || (!a[j].IsNull() && a[j].String() != b[j].String()) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.bin")
	orig := GenerateSYN(SYNConfig{Rows: 100, Seed: 1})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(orig, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 100 {
		t.Errorf("rows = %d", back.NumRows())
	}
}

func TestReadBinaryCorrupt(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not gob")); err == nil {
		t.Error("corrupt binary should fail")
	}
}
