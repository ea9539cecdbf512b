package dataset

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// randomLiveRow draws a row of liveSchema with NULLs in every column, NaN
// and signed zeros in the float column and empty strings.
func randomLiveRow(rng *rand.Rand) []Value {
	row := []Value{
		StringVal([]string{"", "a", "bb", "ccc\x00"}[rng.Intn(4)]),
		Int(rng.Int63() - math.MaxInt64/2),
		Float([]float64{rng.NormFloat64(), math.NaN(), math.Copysign(0, -1), math.Inf(1)}[rng.Intn(4)]),
		Bool(rng.Intn(2) == 0),
	}
	for j := range row {
		if rng.Intn(5) == 0 {
			row[j] = Null
		}
	}
	return row
}

// sameCells reports whether a and b hold the same cells bit for bit:
// NULLs, kinds, float bits (NaN payloads included) and the numeric views.
func sameCells(a, b *Table) bool {
	if a.NumRows() != b.NumRows() {
		return false
	}
	for j, ca := range a.Cols {
		cb := b.Cols[j]
		for i := 0; i < a.NumRows(); i++ {
			va, vb := ca.Value(i), cb.Value(i)
			if va.Kind != vb.Kind || va.I != vb.I || va.S != vb.S || va.B != vb.B ||
				math.Float64bits(va.F) != math.Float64bits(vb.F) {
				return false
			}
		}
		fa, _, _ := ca.NumericView()
		fb, _, _ := cb.NumericView()
		for i := range fa {
			if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
				return false
			}
		}
	}
	return true
}

// TestSegmentRoundTrip: a segment of rows [from, to) applied to a table of
// the first from rows rebuilds the first to rows bit for bit, at unaligned
// bounds and across bitmap words, and chained segments rebuild the whole
// table.
func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	full := NewTable("t", liveSchema(t))
	for i := 0; i < 300; i++ {
		full.MustAppendRow(randomLiveRow(rng)...)
	}
	prefix := func(n int) *Table {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return full.Subset("t", rows)
	}
	for _, r := range [][2]int{{0, 0}, {0, 1}, {0, 64}, {3, 70}, {63, 129}, {64, 300}, {131, 300}, {299, 300}} {
		from, to := r[0], r[1]
		got, err := prefix(from).WithSegment(AppendSegment(nil, full, from, to))
		if err != nil {
			t.Fatalf("[%d, %d): %v", from, to, err)
		}
		if !sameCells(got, prefix(to)) {
			t.Fatalf("[%d, %d): decoded rows differ", from, to)
		}
	}
	cur := prefix(10)
	for _, to := range []int{11, 80, 81, 200, 300} {
		next, err := cur.WithSegment(AppendSegment(nil, full, cur.NumRows(), to))
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if !sameCells(cur, full) {
		t.Fatal("chained segments differ from the table")
	}
}

// TestSegmentSharesStorage: a segment extends the receiver's arrays in
// place like WithAppended does, so decoding a segment onto the head costs
// the segment, not a copy of the table, and leaves the receiver
// untouched.
func TestSegmentSharesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := NewTable("t", liveSchema(t))
	for i := 0; i < 100; i++ {
		src.MustAppendRow(randomLiveRow(rng)...)
	}
	base := src.Subset("t", []int{0, 1, 2, 3})
	v60, err := base.WithSegment(AppendSegment(nil, src, 4, 60))
	if err != nil {
		t.Fatal(err)
	}
	v61, err := v60.WithSegment(AppendSegment(nil, src, 60, 61))
	if err != nil {
		t.Fatal(err)
	}
	// Whether or not v60's arrays had room, v61's were grown with append's
	// spare capacity, so the next segment writes into their tails.
	v62, err := v61.WithSegment(AppendSegment(nil, src, 61, 62))
	if err != nil {
		t.Fatal(err)
	}
	for j := range v62.Cols {
		a, b := v61.Cols[j], v62.Cols[j]
		var shared bool
		switch a.Def.Kind {
		case KindInt:
			shared = &a.Ints[0] == &b.Ints[0]
		case KindFloat:
			shared = &a.Floats[0] == &b.Floats[0]
		case KindString:
			shared = &a.Strs[0] == &b.Strs[0]
		case KindBool:
			shared = &a.Bools[0] == &b.Bools[0]
		}
		if !shared {
			t.Errorf("column %q was copied instead of extended in place", a.Def.Name)
		}
	}
	first := src.Subset("t", make([]int, 0))
	for i := 0; i < 62; i++ {
		first.MustAppendRow(src.Row(i)...)
	}
	if base.NumRows() != 4 || v60.NumRows() != 60 || v61.NumRows() != 61 || !sameCells(v62, first) {
		t.Fatal("decoded versions differ from the source")
	}
}

// TestSegmentRejectsCorruption: every structural fault in a segment is an
// error, never a panic, and a refused segment claims nothing.
func TestSegmentRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewTable("t", liveSchema(t))
	for i := 0; i < 70; i++ {
		src.MustAppendRow(randomLiveRow(rng)...)
	}
	base := NewTable("t", liveSchema(t))
	good := AppendSegment(nil, src, 0, 70)
	if _, err := base.WithSegment(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(p []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	// Offsets into good: the string column comes first, then ints.
	cases := map[string][]byte{
		"empty":     {},
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
		"columns":   mutate(func(p []byte) []byte { p[4]++; return p }),
		"rows":      mutate(func(p []byte) []byte { binary.LittleEndian.PutUint32(p, 1<<30); return p }),
		"kind":      mutate(func(p []byte) []byte { p[8] = byte(KindInt); return p }),
		"words":     mutate(func(p []byte) []byte { binary.LittleEndian.PutUint32(p[9:], 1); return p }),
	}
	// A bool byte that is neither 0 nor 1: the bool column is last, so its
	// cells end the segment.
	cases["bool"] = mutate(func(p []byte) []byte { p[len(p)-1] = 2; return p })
	// A NULL bit past the last row of the string column's bitmap.
	if w := binary.LittleEndian.Uint32(good[9:]); w == 2 {
		cases["null bit past rows"] = mutate(func(p []byte) []byte { p[13+15] |= 0x80; return p })
	}
	for name, p := range cases {
		if _, err := base.WithSegment(p); err == nil {
			t.Errorf("%s segment accepted", name)
		}
	}
	// Nothing was claimed: an append to base still lands in place.
	if next, err := base.WithSegment(good); err != nil || !sameCells(next, src) {
		t.Fatalf("valid segment after refusals: %v", err)
	}
}
