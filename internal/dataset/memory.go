package dataset

// MemoryBytes estimates the resident heap bytes of the table's column
// data: typed value slices (by capacity — the allocation, not the fill),
// string contents, null bitmaps, and the numeric decode caches. It is the
// dataset layer's contribution to the per-session memory accounting the
// server's eviction budget runs on (DESIGN.md §16) — an estimate of the
// dominant allocations, not a precise heap census: struct headers and the
// schema are covered by the session-level overhead constant instead.
//
// Cost: O(columns) for numeric columns, O(rows) for string columns (the
// per-string lengths must be summed). Callers that account repeatedly
// against an immutable table should cache the result.
func (t *Table) MemoryBytes() int64 {
	var b int64
	for _, c := range t.Cols {
		b += c.MemoryBytes()
	}
	return b
}

// MemoryBytes estimates the column's resident heap bytes (see
// Table.MemoryBytes). A version that shares its arrays is charged for the
// whole allocation it keeps alive, spare capacity and all.
func (c *Column) MemoryBytes() int64 {
	b := allocated(c.Ints, c.back)*8 + allocated(c.Floats, c.back)*8 + allocated(c.Bools, c.back) +
		int64(cap(c.nulls))*8
	if len(c.Strs) > 0 {
		b += allocated(c.Strs, c.back) * 16 // string headers
		for _, s := range c.Strs {
			b += int64(len(s))
		}
	}
	c.dec.mu.Lock()
	b += int64(Allocated(c.dec.vals, c.dec.back)) * 8
	c.dec.mu.Unlock()
	return b
}

// allocated is Allocated for a typed slice and a column's untyped back.
func allocated[T any](s []T, back any) int64 {
	b, _ := back.(*Backing[T])
	return int64(Allocated(s, b))
}
