package dataset

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// encodeBinary gob-encodes a hand-built wire table, as a corrupt or
// hand-edited file would carry it.
func encodeBinary(t testing.TB, bt binaryTable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(bt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wireColumn(nulls ...int) binaryTable {
	return binaryTable{Version: binaryVersion, Name: "t", Columns: []binaryColumn{
		{Name: "x", Kind: KindFloat, Role: RoleMeasure, Floats: []float64{1, 2, 3}, Nulls: nulls},
	}}
}

// TestReadBinaryRejectsBadNullIndex: a gob-valid table whose NULL index
// lies outside its column — negative, one past the end, or huge — is an
// error: it neither panics nor grows the bitmap past the column.
func TestReadBinaryRejectsBadNullIndex(t *testing.T) {
	for _, n := range []int{-1, 3, 1 << 40} {
		if _, err := ReadBinary(bytes.NewReader(encodeBinary(t, wireColumn(n)))); err == nil {
			t.Errorf("NULL index %d accepted in a 3-row column", n)
		}
	}
	back, err := ReadBinary(bytes.NewReader(encodeBinary(t, wireColumn(0, 2))))
	if err != nil {
		t.Fatal(err)
	}
	if c := back.Cols[0]; !c.IsNull(0) || c.IsNull(1) || !c.IsNull(2) {
		t.Fatal("in-range NULL indexes not restored")
	}
}

// FuzzReadBinary: ReadBinary never panics, and a table it accepts is
// whole — every column as long as the table, every NULL inside its
// column, every row readable — and survives a WriteBinary round trip.
func FuzzReadBinary(f *testing.F) {
	full := MustSchema(
		ColumnDef{Name: "i", Kind: KindInt, Role: RoleMeasure},
		ColumnDef{Name: "f", Kind: KindFloat, Role: RoleMeasure},
		ColumnDef{Name: "s", Kind: KindString, Role: RoleDimension},
		ColumnDef{Name: "b", Kind: KindBool},
	)
	tab := NewTable("t", full)
	tab.MustAppendRow(Int(1), Float(0.5), StringVal("a"), Bool(true))
	tab.MustAppendRow(Null, Null, StringVal(""), Null)
	var buf bytes.Buffer
	if err := WriteBinary(tab, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	for _, n := range []int{-1, 3, 1 << 40} {
		f.Add(encodeBinary(f, wireColumn(n)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, c := range got.Cols {
			if c.Len() != got.NumRows() {
				t.Fatalf("column %q has %d rows, table %d", c.Def.Name, c.Len(), got.NumRows())
			}
			if len(c.NullBitmap()) > (c.Len()+63)/64 {
				t.Fatalf("column %q: NULL bitmap of %d words for %d rows", c.Def.Name, len(c.NullBitmap()), c.Len())
			}
		}
		for i := 0; i < got.NumRows(); i++ {
			got.Row(i)
		}
		var out bytes.Buffer
		if err := WriteBinary(got, &out); err != nil {
			t.Fatal(err)
		}
		again, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		for j, c := range got.Cols {
			if c.NullCount() != again.Cols[j].NullCount() || again.NumRows() != got.NumRows() {
				t.Fatalf("column %q changed across a round trip", c.Def.Name)
			}
		}
	})
}
