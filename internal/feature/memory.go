package feature

// MemoryBytes estimates the resident heap bytes of the matrix: the row
// bank (the dominant term — views × features float64s plus row headers),
// the spec table, exactness flags and feature names. Part of the
// per-session memory accounting behind the server's eviction budget
// (DESIGN.md §16); an estimate of the dominant allocations, not a heap
// census. Specs' string contents are counted; the generator and registry
// the matrix points at are accounted by their owners.
func (m *Matrix) MemoryBytes() int64 {
	var b int64
	for _, row := range m.Rows {
		b += 24 + int64(cap(row))*8 // slice header + values
	}
	b += int64(cap(m.Exact))
	for _, s := range m.Specs {
		// Three string headers + the int + the string contents.
		b += 3*16 + 8 + int64(len(s.Dimension)+len(s.Measure)+len(s.Agg))
	}
	for _, n := range m.Names {
		b += 16 + int64(len(n))
	}
	return b
}
