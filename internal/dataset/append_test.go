package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
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
// see each other. Both would write past the base's length in the same
// backing array; only the first wins the claim on that tail, and the
// second copies.
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

// liveRows returns n rows for liveSchema starting at row id from; with
// nulls, some cells of every column are NULL.
func liveRows(from, n int, nulls bool) [][]Value {
	out := make([][]Value, n)
	for i := range out {
		id := from + i
		r := []Value{StringVal(fmt.Sprintf("c%d", id%5)), Int(int64(id)), Float(float64(id) / 4), Bool(id%2 == 0)}
		if nulls && id%7 == 0 {
			r[id%4] = Null
		}
		out[i] = r
	}
	return out
}

// headWithRoom returns a version holding rows whose arrays have spare
// capacity: a loaded table of all rows but the last, to which appending
// the last copies each column into an array grown as append grows it
// (at least doubled at these sizes).
func headWithRoom(t *testing.T, rows [][]Value) *Table {
	t.Helper()
	loaded := NewTable("t", liveSchema(t))
	for _, r := range rows[:len(rows)-1] {
		for j, v := range r {
			if err := loaded.Cols[j].Append(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := loaded.sealRows(); err != nil {
		t.Fatal(err)
	}
	v, err := loaded.WithAppended(rows[len(rows)-1:])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// tableChecksum hashes every cell of every column of tab in row order:
// NULL flags, typed cells and the numeric views the scan kernels read. A
// write into any array a version reads changes it.
func tableChecksum(tab *Table) uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(w[:], u)
		h.Write(w[:])
	}
	for _, c := range tab.Cols {
		vals, nulls, numeric := c.NumericView()
		for r := 0; r < tab.NumRows(); r++ {
			if c.IsNull(r) {
				put(1)
			}
			switch c.Def.Kind {
			case KindInt:
				put(uint64(c.Ints[r]))
			case KindFloat:
				put(math.Float64bits(c.Floats[r]))
			case KindString:
				h.Write([]byte(c.Strs[r]))
			case KindBool:
				if c.Bools[r] {
					put(2)
				}
			}
			if numeric {
				put(math.Float64bits(vals[r]))
				if isNullBit(nulls, r) {
					put(3)
				}
			}
		}
	}
	return h.Sum64()
}

func isNullBit(nulls []uint64, r int) bool {
	w := r >> 6
	return w < len(nulls) && nulls[w]>>(uint(r)&63)&1 == 1
}

// wantRows checks tab against want cell for cell.
func wantRows(t *testing.T, name string, tab *Table, want [][]Value) {
	t.Helper()
	if tab.NumRows() != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, tab.NumRows(), len(want))
	}
	for i, w := range want {
		if got := tab.Row(i); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s row %d: %v, want %v", name, i, got, w)
		}
	}
}

// TestWithAppendedPinnedReadersRace pins versions while the head appends
// in place into the arrays they share: readers re-checksum every column
// of a pinned version, and every version's checksum must still match the
// one taken when it was published. Run under -race, this also shows that
// no cell a published version reads is written.
func TestWithAppendedPinnedReadersRace(t *testing.T) {
	head := headWithRoom(t, liveRows(0, 500, true))
	want := liveRows(0, 500, true)
	var cur atomic.Pointer[Table]
	cur.Store(head)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := cur.Load()
				sum := tableChecksum(v)
				if tableChecksum(v) != sum {
					t.Error("a pinned version changed while the head appended")
					return
				}
			}
		}()
	}
	versions := []*Table{head}
	sums := []uint64{tableChecksum(head)}
	for i := 0; i < 60; i++ {
		rows := liveRows(500+20*i, 20, i%3 == 0)
		next, err := cur.Load().WithAppended(rows)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rows...)
		cur.Store(next)
		versions = append(versions, next)
		sums = append(sums, tableChecksum(next))
	}
	close(stop)
	wg.Wait()
	for i, v := range versions {
		if tableChecksum(v) != sums[i] {
			t.Fatalf("version %d changed after it was published", i)
		}
	}
	wantRows(t, "head", cur.Load(), want)
	// The appends wrote in place into the storage their parents read.
	if &versions[1].Cols[1].Ints[0] != &head.Cols[1].Ints[0] {
		t.Fatal("an append copied its parent's int array")
	}
}

// TestWithAppendedForkAndAppendRowStayExact forks an old version (a second
// WithAppended on a version whose tail is claimed) and calls AppendRow on
// a claimed version: both lose the claim and copy, and every version
// stays cell-exact.
func TestWithAppendedForkAndAppendRowStayExact(t *testing.T) {
	base := headWithRoom(t, liveRows(0, 10, true))
	left, err := base.WithAppended(liveRows(100, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	right, err := base.WithAppended(liveRows(200, 5, true))
	if err != nil {
		t.Fatal(err)
	}
	leftNext, err := left.WithAppended(liveRows(300, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if &left.Cols[2].Floats[0] != &base.Cols[2].Floats[0] || &right.Cols[2].Floats[0] == &base.Cols[2].Floats[0] {
		t.Fatal("want the first append to share the base's array and the fork to copy")
	}
	// AppendRow on left, whose tail leftNext claimed, copies too.
	extra := liveRows(400, 1, false)[0]
	extra[2] = Null
	if err := left.AppendRow(extra...); err != nil {
		t.Fatal(err)
	}
	rows := func(parts ...[][]Value) [][]Value {
		var out [][]Value
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	wantRows(t, "base", base, liveRows(0, 10, true))
	wantRows(t, "right", right, rows(liveRows(0, 10, true), liveRows(200, 5, true)))
	wantRows(t, "leftNext", leftNext, rows(liveRows(0, 10, true), liveRows(100, 5, false), liveRows(300, 2, true)))
	wantRows(t, "left", left, rows(liveRows(0, 10, true), liveRows(100, 5, false), [][]Value{extra}))
	// AppendRow on the head, whose tail is unclaimed, extends in place.
	if err := leftNext.AppendRow(extra...); err != nil {
		t.Fatal(err)
	}
	if &leftNext.Cols[2].Floats[0] != &base.Cols[2].Floats[0] {
		t.Fatal("AppendRow on the head copied instead of claiming its tail")
	}
	wantRows(t, "base after AppendRows", base, liveRows(0, 10, true))
}

// TestWithAppendedConcurrentForks races forks of one version from several
// goroutines: exactly one wins each array's tail and the rest copy, and
// every fork, extended again, is cell-exact.
func TestWithAppendedConcurrentForks(t *testing.T) {
	base := headWithRoom(t, liveRows(0, 40, true))
	const forks = 4
	var wg sync.WaitGroup
	got := make([]*Table, forks)
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := base.WithAppended(liveRows(100*(g+1), 3, g%2 == 0))
			if err == nil {
				v, err = v.WithAppended(liveRows(100*(g+1)+3, 2, true))
			}
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = v
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	shared := 0
	for g, v := range got {
		want := append(liveRows(0, 40, true), liveRows(100*(g+1), 3, g%2 == 0)...)
		wantRows(t, fmt.Sprintf("fork %d", g), v, append(want, liveRows(100*(g+1)+3, 2, true)...))
		if &v.Cols[2].Floats[0] == &base.Cols[2].Floats[0] {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("%d forks extend the base's float array in place, want exactly 1", shared)
	}
	wantRows(t, "base", base, liveRows(0, 40, true))
}

// TestWithAppendedRejectedBatchKeepsTail: a batch with a bad row fails
// before anything is claimed, so the next append still extends in place.
// A version that is built and then dropped (as after a failed WAL write)
// strands its claim; the append after it copies once and is still exact.
func TestWithAppendedRejectedBatchKeepsTail(t *testing.T) {
	head := headWithRoom(t, liveRows(0, 10, false))
	bad := liveRows(10, 3, false)
	bad[2][3] = StringVal("notbool") // the last column of the last row
	if _, err := head.WithAppended(bad); err == nil {
		t.Fatal("mistyped bool accepted")
	}
	next, err := head.WithAppended(liveRows(10, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	wantRows(t, "next", next, liveRows(0, 13, false))
	if &next.Cols[0].Strs[0] != &head.Cols[0].Strs[0] || &next.Cols[3].Bools[0] != &head.Cols[3].Bools[0] {
		t.Fatal("the append after a rejected batch copied instead of extending in place")
	}
	// next is dropped: its claim is stranded, and the append after it
	// copies.
	after, err := head.WithAppended(liveRows(50, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	if &after.Cols[1].Ints[0] == &head.Cols[1].Ints[0] {
		t.Fatal("an append from a version whose tail is claimed shared its array")
	}
	wantRows(t, "after", after, append(liveRows(0, 10, false), liveRows(50, 4, true)...))
	wantRows(t, "head", head, liveRows(0, 10, false))
}

// TestWithAppendedNullBatchKeepsOlderBitmaps: a batch with NULLs copies
// the bitmap, so no older version sees the new bits — even in the last
// word, which the older versions also read; a batch without NULLs shares
// the parent's bitmap.
func TestWithAppendedNullBatchKeepsOlderBitmaps(t *testing.T) {
	v0, err := NewTable("t", liveSchema(t)).WithAppended(liveRows(0, 80, true))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := v0.WithAppended(liveRows(80, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]uint64, len(v1.Cols))
	for j, c := range v1.Cols {
		before[j] = append([]uint64(nil), c.NullBitmap()...)
		if len(c.nulls) > 0 && &c.nulls[0] != &v0.Cols[j].nulls[0] {
			t.Fatalf("column %d: a NULL-free batch copied the bitmap", j)
		}
	}
	nullRow := []Value{Null, Null, Null, Null}
	v2, err := v1.WithAppended([][]Value{nullRow, nullRow})
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range v1.Cols {
		if got := c.NullBitmap(); !reflect.DeepEqual(got, before[j]) {
			t.Fatalf("column %d: the older version's bitmap changed: %x -> %x", j, before[j], got)
		}
		if c.IsNull(83) || !v2.Cols[j].IsNull(83) || !v2.Cols[j].IsNull(84) {
			t.Fatalf("column %d: NULLs landed in the wrong version", j)
		}
	}
	wantRows(t, "v0", v0, liveRows(0, 80, true))
	wantRows(t, "v1", v1, append(liveRows(0, 80, true), liveRows(80, 3, false)...))
}

// TestWithAppendedAllocationBound: N appends of b rows to an n-row
// int+float table allocate O(N·b) bytes, not O(N·n). An array that runs
// out of room is copied into one grown as append grows it (1.25× at this
// size), so over N·b < n/4 appended rows each of the three arrays — the
// int and float columns and the int column's decode cache — is copied
// at most once. Copying the prefix on every append instead would cost
// about N times that allowance.
func TestWithAppendedAllocationBound(t *testing.T) {
	const n, appends, b = 100_000, 40, 100
	schema := MustSchema(
		ColumnDef{Name: "n", Kind: KindInt, Role: RoleMeasure},
		ColumnDef{Name: "x", Kind: KindFloat, Role: RoleMeasure},
	)
	tab := NewTable("t", schema)
	tab.Cols[0].Ints = make([]int64, n)
	tab.Cols[1].Floats = make([]float64, n)
	if err := tab.sealRows(); err != nil {
		t.Fatal(err)
	}
	batches := make([][][]Value, appends)
	for i := range batches {
		batches[i] = make([][]Value, b)
		for r := range batches[i] {
			batches[i][r] = []Value{Int(int64(r)), Float(float64(r))}
		}
	}
	head := tab
	head.Cols[0].NumericView()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, batch := range batches {
		var err error
		if head, err = head.WithAppended(batch); err != nil {
			t.Fatal(err)
		}
		head.Cols[0].NumericView()
	}
	runtime.ReadMemStats(&after)
	growth := uint64(3 * n * 8 * 5 / 4)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(appends*b*100)+growth; got > bound {
		t.Errorf("%d appends of %d rows allocated %d bytes, want ≤ %d", appends, b, got, bound)
	}
	if vals, _, _ := head.Cols[0].NumericView(); len(vals) != n+appends*b || vals[n] != 0 || vals[len(vals)-1] != b-1 {
		t.Fatal("the extended decode cache is wrong")
	}
}
