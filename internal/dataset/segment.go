package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// A segment is rows [from, to) of every column of a table in the typed
// column codec: cells are encoded straight from the column arrays and
// decoded straight into a new version's arrays, with no boxing and no
// gob pass. Live-table checkpoints persist appended rows as segments
// (internal/live). The layout, little-endian:
//
//	u32 rows | u32 columns | per column:
//	  u8 kind | u32 null words w (0, or one bit per row) | w × u64 bitmap
//	  | cells — int, float: rows × u64; bool: rows × u8 (0 or 1);
//	    string: rows × u32 lengths, then the bytes
//
// Bit i of the bitmap is row from+i; a NULL cell holds its kind's zero
// value, as everywhere else.

// segmentHeaderLen is the rows and columns counts ahead of the columns.
const segmentHeaderLen = 8

// AppendSegment appends the segment encoding of rows [from, to) of t to
// buf, growing buf once.
func AppendSegment(buf []byte, t *Table, from, to int) []byte {
	n := to - from
	size := segmentHeaderLen
	for _, c := range t.Cols {
		size += 5 + (n+63)/64*8
		switch c.Def.Kind {
		case KindInt, KindFloat:
			size += 8 * n
		case KindBool:
			size += n
		case KindString:
			size += 4 * n
			for _, s := range c.Strs[from:to] {
				size += len(s)
			}
		}
	}
	buf = slices.Grow(buf, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Cols)))
	for _, c := range t.Cols {
		buf = append(buf, byte(c.Def.Kind))
		buf = c.appendNullWords(buf, from, to)
		switch c.Def.Kind {
		case KindInt:
			for _, v := range c.Ints[from:to] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		case KindFloat:
			for _, v := range c.Floats[from:to] {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		case KindBool:
			for _, v := range c.Bools[from:to] {
				if v {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
			}
		case KindString:
			for _, s := range c.Strs[from:to] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			}
			for _, s := range c.Strs[from:to] {
				buf = append(buf, s...)
			}
		}
	}
	return buf
}

// appendNullWords appends the word count and bitmap of rows [from, to):
// no words when none of them is NULL.
func (c *Column) appendNullWords(buf []byte, from, to int) []byte {
	at := len(buf)
	w := (to - from + 63) / 64
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
	some := false
	for i := 0; i < w; i++ {
		word := c.nullWordAt(from + 64*i)
		if rest := to - from - 64*i; rest < 64 {
			word &= 1<<rest - 1
		}
		some = some || word != 0
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	if !some {
		buf = binary.LittleEndian.AppendUint32(buf[:at], 0)
	}
	return buf
}

// nullWordAt returns the 64 null bits of rows [pos, pos+64).
func (c *Column) nullWordAt(pos int) uint64 {
	q, s := pos>>6, uint(pos&63)
	var word uint64
	if q < len(c.nulls) {
		word = c.nulls[q] >> s
	}
	if s != 0 && q+1 < len(c.nulls) {
		word |= c.nulls[q+1] << (64 - s)
	}
	return word
}

// segmentColumn is one column of a segment that decodeSegment validated.
type segmentColumn struct {
	nulls []byte // the bitmap, 8 bytes a word; empty when no row is NULL
	cells []byte // the fixed-width cells: u64s, bool bytes or string lengths
	strs  string // a string column's bytes, which its cells slice
}

// WithSegment returns a new table version holding t's rows plus the rows
// segment p encodes (AppendSegment's output), leaving t untouched. Its
// columns share t's storage exactly as WithAppended's do: the decoded
// cells are written into the arrays' tails when t owns them. p must match
// t's schema kind for kind, and is checked whole before anything is
// claimed, so a segment that does not decode returns an error and claims
// nothing. A string column's cells all share one allocation.
func (t *Table) WithSegment(p []byte) (*Table, error) {
	rows, cols, err := t.decodeSegment(p)
	if err != nil {
		return nil, err
	}
	out := &Table{Name: t.Name, Schema: t.Schema, Cols: make([]*Column, len(t.Cols)), rows: t.rows + rows, version: 1}
	for j, c := range t.Cols {
		out.Cols[j] = c.appended(func(o *Column) { o.extendSegment(cols[j], rows) })
	}
	return out, nil
}

// decodeSegment splits p into its columns, checking every count, kind,
// length and bool cell, so a corrupted segment yields an error, never a
// panic or a cell that AppendSegment could not have written.
func (t *Table) decodeSegment(p []byte) (int, []segmentColumn, error) {
	if len(p) < segmentHeaderLen {
		return 0, nil, fmt.Errorf("dataset: segment too short (%d bytes)", len(p))
	}
	rows := int(binary.LittleEndian.Uint32(p[0:4]))
	ncols := int(binary.LittleEndian.Uint32(p[4:8]))
	if ncols != len(t.Cols) {
		return 0, nil, fmt.Errorf("dataset: segment has %d columns, table %q %d", ncols, t.Name, len(t.Cols))
	}
	// Every column stores at least a byte per row, which bounds the row
	// count by the payload before any size below is computed from it.
	if ncols > 0 && rows > len(p) {
		return 0, nil, fmt.Errorf("dataset: segment claims %d rows in %d bytes", rows, len(p))
	}
	off := segmentHeaderLen
	take := func(n int) ([]byte, error) {
		if n < 0 || n > len(p)-off {
			return nil, fmt.Errorf("dataset: segment truncated at byte %d", off)
		}
		b := p[off : off+n]
		off += n
		return b, nil
	}
	cols := make([]segmentColumn, ncols)
	for j, c := range t.Cols {
		head, err := take(5)
		if err != nil {
			return 0, nil, err
		}
		if Kind(head[0]) != c.Def.Kind {
			return 0, nil, fmt.Errorf("dataset: segment column %d is %v, %q is %v", j, Kind(head[0]), c.Def.Name, c.Def.Kind)
		}
		w := int(binary.LittleEndian.Uint32(head[1:5]))
		if w != 0 && w != (rows+63)/64 {
			return 0, nil, fmt.Errorf("dataset: segment column %q has %d null words for %d rows", c.Def.Name, w, rows)
		}
		sc := &cols[j]
		if sc.nulls, err = take(8 * w); err != nil {
			return 0, nil, err
		}
		if w > 0 && rows%64 != 0 && binary.LittleEndian.Uint64(sc.nulls[8*(w-1):])>>(rows%64) != 0 {
			return 0, nil, fmt.Errorf("dataset: segment column %q has NULL bits past its rows", c.Def.Name)
		}
		width := 8
		switch c.Def.Kind {
		case KindBool:
			width = 1
		case KindString:
			width = 4
		}
		if sc.cells, err = take(width * rows); err != nil {
			return 0, nil, err
		}
		switch c.Def.Kind {
		case KindBool:
			for _, b := range sc.cells {
				if b > 1 {
					return 0, nil, fmt.Errorf("dataset: segment column %q has bool byte %d", c.Def.Name, b)
				}
			}
		case KindString:
			total := 0
			for i := 0; i < rows; i++ {
				total += int(binary.LittleEndian.Uint32(sc.cells[4*i:]))
			}
			strs, err := take(total)
			if err != nil {
				return 0, nil, err
			}
			sc.strs = string(strs)
		}
	}
	if off != len(p) {
		return 0, nil, fmt.Errorf("dataset: %d trailing bytes after segment", len(p)-off)
	}
	return rows, cols, nil
}

// extendSegment appends the k decoded cells of sc to c in place.
func (c *Column) extendSegment(sc segmentColumn, k int) {
	n := c.Len()
	u64 := func(i int) uint64 { return binary.LittleEndian.Uint64(sc.cells[8*i:]) }
	switch c.Def.Kind {
	case KindInt:
		c.Ints, c.back = extendCells(c.Ints, c.back, k, func(i int) int64 { return int64(u64(i)) })
	case KindFloat:
		c.Floats, c.back = extendCells(c.Floats, c.back, k, func(i int) float64 { return math.Float64frombits(u64(i)) })
	case KindBool:
		c.Bools, c.back = extendCells(c.Bools, c.back, k, func(i int) bool { return sc.cells[i] == 1 })
	case KindString:
		at := 0
		c.Strs, c.back = extendCells(c.Strs, c.back, k, func(i int) string {
			l := int(binary.LittleEndian.Uint32(sc.cells[4*i:]))
			at += l
			return sc.strs[at-l : at]
		})
	}
	for w := 0; 8*w < len(sc.nulls); w++ {
		for word := binary.LittleEndian.Uint64(sc.nulls[8*w:]); word != 0; word &= word - 1 {
			c.markNull(n + 64*w + bits.TrailingZeros64(word))
		}
	}
}
