package dataset

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Table is an in-memory columnar table. The zero value is unusable; build
// tables with NewTable and fill them with AppendRow or the typed column
// slices directly.
type Table struct {
	Name   string
	Schema *Schema
	Cols   []*Column
	rows   int

	// version counts content mutations (appends, seals, role changes).
	// Memo keys on it, so state derived from an unchanged table is
	// computed once, not once per lookup.
	version uint64

	memoMu  sync.Mutex
	memoVer uint64
	memo    map[any]*memoEntry
}

// memoEntry is one Memo value, computed once.
type memoEntry struct {
	once sync.Once
	val  any
}

// NewTable allocates an empty table for the schema.
func NewTable(name string, schema *Schema) *Table {
	cols := make([]*Column, schema.Len())
	for i, def := range schema.Columns {
		cols[i] = NewColumn(def)
	}
	return &Table{Name: name, Schema: schema, Cols: cols}
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	i := t.Schema.Index(name)
	if i < 0 {
		return nil
	}
	return t.Cols[i]
}

// AppendRow adds one row. The number of values must equal the schema width.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("dataset: table %q expects %d values, got %d", t.Name, len(t.Cols), len(vals))
	}
	for i, v := range vals {
		if err := t.Cols[i].Append(v); err != nil {
			return err
		}
	}
	t.rows++
	t.version++
	return nil
}

// Version returns the table's mutation counter. It increases on every
// content change (AppendRow, sealRows, AssignRoles) and is what Memo keys
// its entries on. Not safe against concurrent mutation — like the
// mutators themselves.
func (t *Table) Version() uint64 { return t.version }

// Memo returns the value memoised under key for the table's current
// version, calling compute only on the first lookup of key since the last
// mutation. It holds state that is a pure function of the table's
// contents but is computed by other layers — the store layer's content
// hash, the view layer's reference side — because only the table knows
// when its contents changed. A mutation drops every entry, and a new
// version made by WithAppended starts with none, so derived state is freed
// with the version it describes. Keys must be comparable; each caller
// uses its own unexported key type, so entries of different layers never
// collide. Safe for concurrent use: concurrent lookups of one key compute
// it once, and a lookup never waits for another key's compute.
func (t *Table) Memo(key any, compute func() any) any {
	t.memoMu.Lock()
	if t.memo == nil || t.memoVer != t.version {
		t.memo, t.memoVer = make(map[any]*memoEntry), t.version
	}
	e, ok := t.memo[key]
	if !ok {
		e = &memoEntry{}
		t.memo[key] = e
	}
	t.memoMu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}

// WithAppended returns a new table holding the receiver's rows plus the
// given rows, leaving the receiver untouched — the copy-on-append MVCC
// step behind live tables. Readers of the old version keep a consistent
// snapshot: the clone clamps the shared backing slices to their length (so
// its first append reallocates rather than scribbling into shared arrays)
// and copies the null bitmaps outright (bit sets mutate words in place).
// On any row error the receiver is still untouched and the partial clone
// is discarded.
func (t *Table) WithAppended(rows [][]Value) (*Table, error) {
	out := &Table{Name: t.Name, Schema: t.Schema, rows: t.rows}
	out.Cols = make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		out.Cols[i] = c.cloneForAppend()
	}
	for _, r := range rows {
		if err := out.AppendRow(r...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MustAppendRow is AppendRow that panics on error, for generators whose
// values are schema-correct by construction.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// sealRows fixes the row count after bulk column writes. Generators that
// fill the typed slices directly must call it.
func (t *Table) sealRows() error {
	n := -1
	for _, c := range t.Cols {
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return fmt.Errorf("dataset: table %q has ragged columns (%q has %d rows, want %d)",
				t.Name, c.Def.Name, c.Len(), n)
		}
	}
	if n < 0 {
		n = 0
	}
	t.rows = n
	t.version++
	return nil
}

// Row returns row i as boxed values, in schema order.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.Cols))
	for j, c := range t.Cols {
		out[j] = c.Value(i)
	}
	return out
}

// Subset materialises a new table holding the given row indices, in order,
// one column gather at a time.
func (t *Table) Subset(name string, rows []int) *Table {
	cols := make([]*Column, len(t.Cols))
	for j, c := range t.Cols {
		cols[j] = c.Gather(rows)
	}
	return &Table{Name: name, Schema: t.Schema, Cols: cols, rows: len(rows), version: 1}
}

// FromColumns assembles a table from filled columns, one per schema
// column in order, whose definitions match the schema's and whose lengths
// agree.
func FromColumns(name string, schema *Schema, cols []*Column) (*Table, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("dataset: table %q has %d columns, schema %d", name, len(cols), schema.Len())
	}
	for j, c := range cols {
		if c.Def != schema.Columns[j] {
			return nil, fmt.Errorf("dataset: column %d of table %q is %v, schema says %v", j, name, c.Def, schema.Columns[j])
		}
	}
	t := &Table{Name: name, Schema: schema, Cols: cols}
	if err := t.sealRows(); err != nil {
		return nil, err
	}
	return t, nil
}

// IsPrefixOf reports whether u extends t row-for-row: same schema shape
// and u's first NumRows() rows bit-identical to t's (floats compared by
// bits, so NaNs match themselves; NULL positions included). The
// incremental-maintenance layer uses it to verify that re-running an
// exploration query over an appended table only appended result rows —
// the precondition for extending the target's cached scans.
func (t *Table) IsPrefixOf(u *Table) bool {
	n := t.rows
	if u.rows < n || len(t.Cols) != len(u.Cols) {
		return false
	}
	for i, c := range t.Cols {
		d := u.Cols[i]
		if c.Def != d.Def {
			return false
		}
		if !c.prefixEqual(d, n) {
			return false
		}
	}
	return true
}

// DistinctValues returns the sorted distinct group keys of the named
// column. It is used to lay out histogram bins for categorical dimensions.
func (t *Table) DistinctValues(col string) ([]string, error) {
	c := t.Column(col)
	if c == nil {
		return nil, fmt.Errorf("dataset: table %q has no column %q", t.Name, col)
	}
	seen := make(map[string]bool)
	var out []string
	for i := 0; i < t.rows; i++ {
		k := c.GroupKey(i)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// NumericRange returns the [min,max] of a numeric column, ignoring NULLs
// and NaNs. ok is false when the column has no other numeric cells.
func (t *Table) NumericRange(col string) (lo, hi float64, ok bool) {
	c := t.Column(col)
	if c == nil {
		return 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < t.rows; i++ {
		f, fok := c.Float(i)
		if !fok || math.IsNaN(f) {
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
		ok = true
	}
	return lo, hi, ok
}

// SampleRows returns the row indices of a deterministic uniform sample of
// ratio alpha in (0,1]. The sample is the stride pattern used by the
// optimisation layer: it touches every region of the table, is stable
// across runs, and costs no RNG state.
func (t *Table) SampleRows(alpha float64) []int {
	if alpha >= 1 || t.rows == 0 {
		all := make([]int, t.rows)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if alpha <= 0 {
		return nil
	}
	n := int(math.Ceil(float64(t.rows) * alpha))
	if n < 1 {
		n = 1
	}
	stride := float64(t.rows) / float64(n)
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx := int(float64(i) * stride)
		if idx >= t.rows {
			idx = t.rows - 1
		}
		out = append(out, idx)
	}
	return out
}
