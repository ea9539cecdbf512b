package dataset

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestNullBitmap checks the bitmap null store across word boundaries:
// nulls at rows 0, 63, 64, 127 and 200 must be readable through IsNull,
// Value and the raw bitmap, with everything else non-null.
func TestNullBitmap(t *testing.T) {
	c := newColumn(ColumnDef{Name: "x", Kind: KindFloat, Role: RoleMeasure})
	nullAt := map[int]bool{0: true, 63: true, 64: true, 127: true, 200: true}
	for i := 0; i < 256; i++ {
		v := Float(float64(i))
		if nullAt[i] {
			v = Null
		}
		if err := c.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		if c.IsNull(i) != nullAt[i] {
			t.Errorf("IsNull(%d) = %v, want %v", i, c.IsNull(i), nullAt[i])
		}
		if nullAt[i] != c.Value(i).IsNull() {
			t.Errorf("Value(%d).IsNull() = %v, want %v", i, c.Value(i).IsNull(), nullAt[i])
		}
	}
	if got := c.NullCount(); got != len(nullAt) {
		t.Errorf("NullCount = %d, want %d", got, len(nullAt))
	}
	// Reading past the bitmap (and past the column) must report non-null,
	// not panic: the bitmap only covers up to the highest null row.
	if c.IsNull(100_000) {
		t.Error("IsNull far past the bitmap = true")
	}
	if bm := c.NullBitmap(); len(bm) != 200/64+1 {
		t.Errorf("bitmap has %d words, want %d", len(bm), 200/64+1)
	}
}

// TestColumnNoNullsBitmapNil: a column without NULLs keeps a nil bitmap.
func TestColumnNoNullsBitmapNil(t *testing.T) {
	c := newColumn(ColumnDef{Name: "x", Kind: KindInt, Role: RoleMeasure})
	for i := 0; i < 10; i++ {
		if err := c.Append(Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.NullBitmap() != nil {
		t.Error("null-free column has a non-nil bitmap")
	}
	if c.NullCount() != 0 {
		t.Error("null-free column has a nonzero NullCount")
	}
}

// TestNumericView checks the decode-once views against per-cell Float for
// every kind, including NULL masking and cache rebuild after appends.
func TestNumericView(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cols := []*Column{
		newColumn(ColumnDef{Name: "f", Kind: KindFloat}),
		newColumn(ColumnDef{Name: "i", Kind: KindInt}),
		newColumn(ColumnDef{Name: "b", Kind: KindBool}),
	}
	appendRandom := func(n int) {
		for r := 0; r < n; r++ {
			vals := []Value{Float(rng.NormFloat64()), Int(int64(rng.Intn(100))), Bool(rng.Intn(2) == 0)}
			for ci, c := range cols {
				v := vals[ci]
				if rng.Intn(6) == 0 {
					v = Null
				}
				if err := c.Append(v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	check := func() {
		t.Helper()
		for _, c := range cols {
			vals, nulls, ok := c.NumericView()
			if !ok {
				t.Fatalf("column %q has no numeric view", c.Def.Name)
			}
			if len(vals) != c.Len() {
				t.Fatalf("column %q view has %d values for %d rows", c.Def.Name, len(vals), c.Len())
			}
			for r := 0; r < c.Len(); r++ {
				want, wantOK := c.Float(r)
				gotNull := func() bool {
					w := r >> 6
					return w < len(nulls) && nulls[w]>>(uint(r)&63)&1 == 1
				}()
				if gotNull == wantOK {
					t.Fatalf("column %q row %d: bitmap null=%v but Float ok=%v", c.Def.Name, r, gotNull, wantOK)
				}
				if wantOK && vals[r] != want {
					t.Fatalf("column %q row %d: view %v != Float %v", c.Def.Name, r, vals[r], want)
				}
			}
		}
	}
	appendRandom(200)
	check()
	// Appending after a decode must rebuild the cached view.
	appendRandom(50)
	check()
	// String columns have no numeric view.
	s := newColumn(ColumnDef{Name: "s", Kind: KindString})
	if err := s.Append(StringVal("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.NumericView(); ok {
		t.Error("string column returned a numeric view")
	}
}

// TestNumericViewConcurrent races the lazy decode from many goroutines;
// run under -race this proves the cache's locking.
func TestNumericViewConcurrent(t *testing.T) {
	c := newColumn(ColumnDef{Name: "i", Kind: KindInt})
	for i := 0; i < 5_000; i++ {
		v := Int(int64(i))
		if i%97 == 0 {
			v = Null
		}
		if err := c.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals, _, ok := c.NumericView()
			if !ok || len(vals) != c.Len() {
				t.Errorf("view: ok=%v len=%d", ok, len(vals))
				return
			}
			if vals[1] != 1 || vals[4999] != 4999 {
				t.Errorf("decoded values wrong: %v, %v", vals[1], vals[4999])
			}
		}()
	}
	wg.Wait()
}

// TestBinaryRoundTripNullBitmap: gob round-trips rebuild the bitmap.
func TestBinaryRoundTripNullBitmap(t *testing.T) {
	schema := MustSchema(ColumnDef{Name: "x", Kind: KindFloat, Role: RoleMeasure})
	tab := NewTable("t", schema)
	for i := 0; i < 130; i++ {
		v := Float(float64(i))
		if i%13 == 0 {
			v = Null
		}
		tab.MustAppendRow(v)
	}
	var buf bytes.Buffer
	if err := WriteBinary(tab, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c, bc := tab.Cols[0], back.Cols[0]
	for i := 0; i < tab.NumRows(); i++ {
		if c.IsNull(i) != bc.IsNull(i) {
			t.Fatalf("row %d: null %v != %v after round trip", i, c.IsNull(i), bc.IsNull(i))
		}
	}
}
