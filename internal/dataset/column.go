package dataset

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Column stores one table column unboxed. Exactly one of the backing
// slices is populated, matching Def.Kind; nulls is a bitmap with bit i set
// when row i holds SQL NULL (nil when the column has no nulls). The bitmap
// is sized only up to the highest null row, so readers must bounds-check
// the word index (IsNull does).
type Column struct {
	Def    ColumnDef
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	nulls  []uint64

	// dec caches the one-time numeric decode of an int/bool column as a
	// flat []float64, so scan kernels read every column at full memory
	// bandwidth instead of re-running the per-cell kind switch once per
	// row × measure × layout. Guarded by its own mutex: scans fan out over
	// goroutines and may race to build it.
	dec struct {
		mu   sync.Mutex
		vals []float64
		n    int
	}
}

// NewColumn allocates an empty column for the definition.
func NewColumn(def ColumnDef) *Column { return &Column{Def: def} }

// cloneForAppend returns a copy safe to append to while the receiver keeps
// serving readers. The typed slice is shared but capacity-clamped, so the
// clone's first append reallocates instead of writing into the shared
// backing array; the null bitmap is copied outright because markNull ORs
// into existing words; the decode cache starts empty (it would be rebuilt
// on length change anyway).
func (c *Column) cloneForAppend() *Column {
	out := &Column{Def: c.Def}
	out.Ints = c.Ints[:len(c.Ints):len(c.Ints)]
	out.Floats = c.Floats[:len(c.Floats):len(c.Floats)]
	out.Strs = c.Strs[:len(c.Strs):len(c.Strs)]
	out.Bools = c.Bools[:len(c.Bools):len(c.Bools)]
	if c.nulls != nil {
		out.nulls = append(make([]uint64, 0, len(c.nulls)), c.nulls...)
	}
	return out
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
// stores the kind's zero value and records the position as null.
func (c *Column) Append(v Value) error {
	if v.IsNull() {
		c.markNull(c.Len())
		v = zeroOf(c.Def.Kind)
	}
	switch c.Def.Kind {
	case KindInt:
		i, ok := v.AsInt()
		if !ok {
			return fmt.Errorf("dataset: cannot store %s in int column %q", v.Kind, c.Def.Name)
		}
		c.Ints = append(c.Ints, i)
	case KindFloat:
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("dataset: cannot store %s in float column %q", v.Kind, c.Def.Name)
		}
		c.Floats = append(c.Floats, f)
	case KindString:
		if v.Kind != KindString {
			c.Strs = append(c.Strs, v.String())
		} else {
			c.Strs = append(c.Strs, v.S)
		}
	case KindBool:
		if v.Kind != KindBool {
			return fmt.Errorf("dataset: cannot store %s in bool column %q", v.Kind, c.Def.Name)
		}
		c.Bools = append(c.Bools, v.B)
	default:
		return fmt.Errorf("dataset: column %q has invalid kind", c.Def.Name)
	}
	return nil
}

func zeroOf(k Kind) Value {
	switch k {
	case KindInt:
		return Int(0)
	case KindFloat:
		return Float(0)
	case KindString:
		return StringVal("")
	case KindBool:
		return Bool(false)
	default:
		return Null
	}
}

// prefixEqual reports whether the first n cells of c and d are
// bit-identical, including NULL positions (floats compared by bits).
func (c *Column) prefixEqual(d *Column, n int) bool {
	switch c.Def.Kind {
	case KindInt:
		for i := 0; i < n; i++ {
			if c.Ints[i] != d.Ints[i] {
				return false
			}
		}
	case KindFloat:
		for i := 0; i < n; i++ {
			if math.Float64bits(c.Floats[i]) != math.Float64bits(d.Floats[i]) {
				return false
			}
		}
	case KindString:
		for i := 0; i < n; i++ {
			if c.Strs[i] != d.Strs[i] {
				return false
			}
		}
	case KindBool:
		for i := 0; i < n; i++ {
			if c.Bools[i] != d.Bools[i] {
				return false
			}
		}
	}
	// Bitmaps may be sized differently (they stop at the highest null);
	// compare word-wise with missing words as zero and the tail masked to
	// the first n rows.
	nw := (n + 63) >> 6
	for w := 0; w < nw; w++ {
		var a, b uint64
		if w < len(c.nulls) {
			a = c.nulls[w]
		}
		if w < len(d.nulls) {
			b = d.nulls[w]
		}
		if w == nw-1 && n&63 != 0 {
			mask := uint64(1)<<(uint(n)&63) - 1
			a &= mask
			b &= mask
		}
		if a != b {
			return false
		}
	}
	return true
}

// markNull flags row i as NULL, growing the bitmap as needed.
func (c *Column) markNull(i int) {
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
func (c *Column) NullBitmap() []uint64 { return c.nulls }

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
// the result, rebuilding if rows were appended since. ok is false for
// string columns, which have no numeric interpretation. NULL rows hold the
// kind's zero value in vals; consult the bitmap to skip them. The returned
// slices are shared — read-only for callers. Safe for concurrent use.
func (c *Column) NumericView() (vals []float64, nulls []uint64, ok bool) {
	switch c.Def.Kind {
	case KindFloat:
		return c.Floats, c.nulls, true
	case KindInt, KindBool:
		return c.decoded(), c.nulls, true
	default:
		return nil, nil, false
	}
}

func (c *Column) decoded() []float64 {
	c.dec.mu.Lock()
	defer c.dec.mu.Unlock()
	n := c.Len()
	if c.dec.vals != nil && c.dec.n == n {
		return c.dec.vals
	}
	vals := make([]float64, n)
	switch c.Def.Kind {
	case KindInt:
		for i, v := range c.Ints {
			vals[i] = float64(v)
		}
	case KindBool:
		for i, v := range c.Bools {
			if v {
				vals[i] = 1
			}
		}
	}
	c.dec.vals, c.dec.n = vals, n
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
