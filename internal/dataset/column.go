package dataset

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// Column stores one table column unboxed. Exactly one of the backing
// slices is populated, matching Def.Kind; nulls is a bitmap with bit i set
// when row i holds SQL NULL (nil when the column has no nulls). The bitmap
// is sized only up to the highest null row, so readers must bounds-check
// the word index (IsNull does).
//
// A loader or generator fills a column it owns outright. A version made
// by Table.WithAppended instead shares its parent's arrays (DESIGN.md
// §13): its typed slice lives on a Backing and is clamped to its length,
// so no caller's append can write into a tail another version owns, and
// its bitmap is never written in place.
type Column struct {
	Def    ColumnDef
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	nulls  []uint64

	// back is the Backing of the populated typed slice (*Backing[int64]
	// for an int column, and so on), or nil while the column owns its
	// array outright.
	back any
	// sharedNulls marks a bitmap that other versions may read: setting a
	// bit copies it first.
	sharedNulls bool

	// dec caches the numeric decode of an int/bool column as a flat
	// []float64, so scan kernels read every column at full memory
	// bandwidth instead of re-running the per-cell kind switch once per
	// row × measure × layout. It lives on its own Backing: a version made
	// by WithAppended starts from its parent's decode and decodes only
	// the appended rows. Guarded by its own mutex: scans fan out over
	// goroutines and may race to build it.
	dec struct {
		mu   sync.Mutex
		vals []float64
		back *Backing[float64]
	}
}

// newColumn allocates an empty column for the definition.
func newColumn(def ColumnDef) *Column { return &Column{Def: def} }

// appended returns a new column holding c's cells plus the ones extend
// appends to it in place, leaving c untouched: the typed cells go into
// c's tail when c can claim it, else into a copy, and the bitmap is
// shared unless the new cells hold a NULL (or c may still set bits in its
// own).
func (c *Column) appended(extend func(out *Column)) *Column {
	out := &Column{Def: c.Def, Ints: c.Ints, Floats: c.Floats, Strs: c.Strs, Bools: c.Bools,
		back: c.back, nulls: c.nulls, sharedNulls: true}
	if !c.sharedNulls {
		// c may still set bits in the bitmap it owns: out takes a copy.
		out.nulls, out.sharedNulls = slices.Clone(c.nulls), false
	}
	extend(out)
	out.sharedNulls = true // published: later versions may share it
	if c.Def.Kind == KindInt || c.Def.Kind == KindBool {
		c.dec.mu.Lock()
		out.dec.vals, out.dec.back = c.dec.vals, c.dec.back
		c.dec.mu.Unlock()
	}
	return out
}

// extend appends column j of rows, which check accepted, to c in place.
func (c *Column) extend(rows [][]Value, j int) {
	n := c.Len()
	switch c.Def.Kind {
	case KindInt:
		c.Ints, c.back = appendCells(c.Ints, c.back, rows, j, intCell)
	case KindFloat:
		c.Floats, c.back = appendCells(c.Floats, c.back, rows, j, floatCell)
	case KindString:
		c.Strs, c.back = appendCells(c.Strs, c.back, rows, j, stringCell)
	case KindBool:
		c.Bools, c.back = appendCells(c.Bools, c.back, rows, j, boolCell)
	}
	for i, r := range rows {
		if r[j].IsNull() {
			c.markNull(n + i)
		}
	}
}

// appendCells appends conv(row[j]) for each row to s through extendCells.
func appendCells[T any](s []T, back any, rows [][]Value, j int, conv func(Value) T) ([]T, any) {
	return extendCells(s, back, len(rows), func(i int) T { return conv(rows[i][j]) })
}

// extendCells appends cell(0), …, cell(k-1) to s through Extend, so the
// cells land in back's tail when s may claim it.
func extendCells[T any](s []T, back any, k int, cell func(i int) T) ([]T, any) {
	b, _ := back.(*Backing[T])
	n := len(s)
	s, b = Extend(s, b, k)
	for i := range k {
		s[n+i] = cell(i)
	}
	return s, b
}

// The cell a column of each kind stores for a value check accepted; NULL
// stores the kind's zero value.
func intCell(v Value) int64     { i, _ := v.AsInt(); return i }
func floatCell(v Value) float64 { f, _ := v.AsFloat(); return f }
func boolCell(v Value) bool     { return v.B }
func stringCell(v Value) string {
	switch v.Kind {
	case KindNull:
		return ""
	case KindString:
		return v.S
	default:
		return v.String()
	}
}

// Gather returns a new column holding the cells at rows, in order — the
// column-at-a-time form of Table.Subset. NULL cells stay NULL and store
// the kind's zero value, as Append would.
func (c *Column) Gather(rows []int) *Column {
	out := &Column{Def: c.Def}
	switch c.Def.Kind {
	case KindInt:
		out.Ints = gather(c, c.Ints, rows)
	case KindFloat:
		out.Floats = gather(c, c.Floats, rows)
	case KindString:
		out.Strs = gather(c, c.Strs, rows)
	case KindBool:
		out.Bools = gather(c, c.Bools, rows)
	}
	if c.nulls != nil {
		for i, r := range rows {
			if c.IsNull(r) {
				out.markNull(i)
			}
		}
	}
	return out
}

// gather copies src[r] for each row r of c, leaving NULL cells zero.
func gather[T any](c *Column, src []T, rows []int) []T {
	out := make([]T, len(rows))
	for i, r := range rows {
		if !c.IsNull(r) {
			out[i] = src[r]
		}
	}
	return out
}

// Len returns the number of stored cells.
func (c *Column) Len() int {
	switch c.Def.Kind {
	case KindInt:
		return len(c.Ints)
	case KindFloat:
		return len(c.Floats)
	case KindString:
		return len(c.Strs)
	case KindBool:
		return len(c.Bools)
	default:
		return 0
	}
}

// Append adds a value, coercing numerically when needed. Appending NULL
// stores the kind's zero value and records the position as null. It is
// the builder's primitive: it grows the column's own array with append,
// so on a version that shares its array it copies (Table.AppendRow
// claims the shared tail instead).
func (c *Column) Append(v Value) error {
	if err := c.check(v); err != nil {
		return err
	}
	if v.IsNull() {
		c.markNull(c.Len())
	}
	switch c.Def.Kind {
	case KindInt:
		c.Ints = append(c.Ints, intCell(v))
	case KindFloat:
		c.Floats = append(c.Floats, floatCell(v))
	case KindString:
		c.Strs = append(c.Strs, stringCell(v))
	case KindBool:
		c.Bools = append(c.Bools, boolCell(v))
	}
	return nil
}

// check returns an error when the column cannot store v. NULL fits every
// kind.
func (c *Column) check(v Value) error {
	ok := v.IsNull()
	switch c.Def.Kind {
	case KindInt:
		_, isInt := v.AsInt()
		ok = ok || isInt
	case KindFloat:
		_, isFloat := v.AsFloat()
		ok = ok || isFloat
	case KindString:
		ok = true
	case KindBool:
		ok = ok || v.Kind == KindBool
	default:
		return fmt.Errorf("dataset: column %q has invalid kind", c.Def.Name)
	}
	if !ok {
		return fmt.Errorf("dataset: cannot store %s in %s column %q", v.Kind, c.Def.Kind, c.Def.Name)
	}
	return nil
}

// markNull flags row i as NULL, growing the bitmap as needed. A bitmap
// other versions may read is copied first: no word an older version reads
// is ever written.
func (c *Column) markNull(i int) {
	if c.sharedNulls {
		c.nulls, c.sharedNulls = slices.Clone(c.nulls), false
	}
	w := i >> 6
	for len(c.nulls) <= w {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[w] |= 1 << (uint(i) & 63)
}

// Value returns the cell at row i as a boxed Value.
func (c *Column) Value(i int) Value {
	if c.IsNull(i) {
		return Null
	}
	switch c.Def.Kind {
	case KindInt:
		return Int(c.Ints[i])
	case KindFloat:
		return Float(c.Floats[i])
	case KindString:
		return StringVal(c.Strs[i])
	case KindBool:
		return Bool(c.Bools[i])
	default:
		return Null
	}
}

// IsNull reports whether the cell at row i is NULL.
func (c *Column) IsNull(i int) bool {
	w := i >> 6
	return w < len(c.nulls) && c.nulls[w]>>(uint(i)&63)&1 == 1
}

// NullBitmap returns the column's null bitmap: bit i of word i/64 is set
// when row i is NULL. The bitmap covers only up to the highest null row
// (nil when the column has none) and is shared, not copied — callers must
// treat it as read-only.
func (c *Column) NullBitmap() []uint64 { return slices.Clip(c.nulls) }

// NullCount returns the number of NULL cells.
func (c *Column) NullCount() int {
	n := 0
	for _, w := range c.nulls {
		n += bits.OnesCount64(w)
	}
	return n
}

// NumericView returns the column decoded once as a flat []float64 (ints
// and bools widened, bools as 0/1) plus the null bitmap, the decode-once
// view the columnar scan kernels read. Float columns return their backing
// slice directly; int/bool columns decode lazily on first use and cache
// the result, decoding only the rows appended since. ok is false for
// string columns, which have no numeric interpretation. NULL rows hold the
// kind's zero value in vals; consult the bitmap to skip them. The returned
// slices are shared and capacity-clamped — read-only for callers. Safe
// for concurrent use.
func (c *Column) NumericView() (vals []float64, nulls []uint64, ok bool) {
	switch c.Def.Kind {
	case KindFloat:
		return slices.Clip(c.Floats), slices.Clip(c.nulls), true
	case KindInt, KindBool:
		return c.decoded(), slices.Clip(c.nulls), true
	default:
		return nil, nil, false
	}
}

// decoded returns the int/bool column widened to float64, extending the
// cached decode (which may be a parent version's prefix) through Extend.
func (c *Column) decoded() []float64 {
	c.dec.mu.Lock()
	defer c.dec.mu.Unlock()
	n := c.Len()
	m := len(c.dec.vals)
	if m == n {
		return c.dec.vals
	}
	vals, back := Extend(c.dec.vals[:m], c.dec.back, n-m)
	switch c.Def.Kind {
	case KindInt:
		for i, v := range c.Ints[m:] {
			vals[m+i] = float64(v)
		}
	case KindBool:
		for i, v := range c.Bools[m:] {
			vals[m+i] = 0
			if v {
				vals[m+i] = 1
			}
		}
	}
	c.dec.vals, c.dec.back = vals, back
	return vals
}

// Float returns the cell at row i coerced to float64 (0 for NULL or
// non-numeric cells) plus an ok flag. It avoids boxing on the hot
// aggregation path.
func (c *Column) Float(i int) (float64, bool) {
	if c.IsNull(i) {
		return 0, false
	}
	switch c.Def.Kind {
	case KindInt:
		return float64(c.Ints[i]), true
	case KindFloat:
		return c.Floats[i], true
	case KindBool:
		if c.Bools[i] {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// GroupKey returns a compact string key identifying the cell's group value,
// used by hash aggregation. NULLs map to a reserved key and therefore group
// together.
func (c *Column) GroupKey(i int) string {
	if c.IsNull(i) {
		return "\x00null"
	}
	switch c.Def.Kind {
	case KindString:
		return c.Strs[i]
	default:
		return c.Value(i).String()
	}
}
