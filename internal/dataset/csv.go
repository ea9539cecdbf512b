package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"viewseeker/internal/par"
)

// ReadCSV loads a table from CSV. The first record is the header. Each
// column's kind is inferred from its first non-empty cell (int, float,
// bool, string, in that order of preference; an all-empty column is a
// string column); later cells that fail to coerce are an error.
// Roles default to RoleOther; callers assign roles with AssignRoles.
func ReadCSV(name string, r io.Reader) (*Table, error) { return readCSV(name, r, nil) }

// csvBlockCells sizes the loader's parse blocks: a table w columns wide
// is parsed csvBlockRows(w) records at a time. 16 Ki cells are 256 KB of
// string headers, small enough to stay in a core's L2 cache while the
// column goroutines walk the block, and a block of SYN's ten columns
// (1638 records) takes about a millisecond to parse, far above the
// per-block fan-out of a channel handoff and one par.ForEach (a few
// microseconds). Sizing by cells, not records, keeps a wide table's
// blocks as small as a narrow one's.
const csvBlockCells = 1 << 14

// csvBlockRows is the number of records in one parse block of a table
// width columns wide.
func csvBlockRows(width int) int { return max(1, csvBlockCells/width) }

// readCSV is the one CSV loader behind ReadCSV, ReadCSVFile and
// ReadCSVWithSchema (DESIGN.md §17). sf, when not nil, is the table's
// schema sidecar, read before the data: the kinds it gives define those
// columns, and only the columns it leaves without a kind are inferred,
// buffering records until each has a non-empty cell. Records then stream
// through csv.Reader in blocks; the calling goroutine reads the next
// block while another parses the current one, one column per work item,
// straight into the typed slices. Tables, cell errors and their order are
// those of the boxed row-at-a-time loader this replaced, which the tests
// keep as an oracle, with two deliberate differences: a column the
// sidecar calls float accepts a whole first cell, and a column with no
// non-empty cell takes the sidecar's kind instead of string.
func readCSV(name string, r io.Reader, sf *schemaFile) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv header: %w", err)
	}
	kinds := sf.kinds()
	defs := make([]ColumnDef, len(header))
	for j, h := range header {
		defs[j].Name = strings.TrimSpace(h)
		defs[j].Kind = kinds[defs[j].Name]
	}
	src := &csvSource{cr: cr, width: len(header)}
	if err := src.inferKinds(defs); err != nil {
		return nil, err
	}
	if _, err := NewSchema(defs...); err != nil {
		return nil, src.drain(err)
	}
	cols := make([]*csvColumn, len(defs))
	for j, def := range defs {
		cols[j] = &csvColumn{c: newColumn(def)}
	}
	if err := src.parse(cols); err != nil {
		return nil, err
	}
	// A column the parse retyped carries its data's kind now; a column
	// with no non-empty cell keeps the kind it started with, the
	// sidecar's when it names one.
	final := make([]*Column, len(cols))
	for j, col := range cols {
		final[j] = col.c
		defs[j] = col.c.Def
	}
	t, err := FromColumns(name, MustSchema(defs...), final)
	if err != nil {
		return nil, err
	}
	if sf != nil {
		if err := sf.apply(t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// csvSource yields a CSV's data records, checking each one's width.
// Records buffered for kind inference are replayed first.
type csvSource struct {
	cr       *csv.Reader
	width    int
	rows     int // data records read from cr
	buffered [][]string
}

// read returns the next record from the reader, io.EOF at the end. The
// record is reused by the next call; its cell strings are not.
func (s *csvSource) read() ([]string, error) {
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, err
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	s.rows++
	if len(rec) != s.width {
		line, _ := s.cr.FieldPos(0)
		return nil, fmt.Errorf("dataset: csv row %d (line %d) has %d fields, header has %d",
			s.rows, line, len(rec), s.width)
	}
	return rec, nil
}

// next is read after the buffered records are replayed.
func (s *csvSource) next() ([]string, error) {
	if len(s.buffered) > 0 {
		rec := s.buffered[0]
		s.buffered = s.buffered[1:]
		return rec, nil
	}
	return s.read()
}

// inferKinds gives every column without a kind (KindNull) the kind of its
// first non-empty cell, buffering records only until each such column has
// one; a column empty to the end of the input is a string column.
func (s *csvSource) inferKinds(defs []ColumnDef) error {
	pending := 0
	for _, def := range defs {
		if def.Kind == KindNull {
			pending++
		}
	}
	for pending > 0 {
		rec, err := s.read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		s.buffered = append(s.buffered, slices.Clone(rec))
		for j, cell := range rec {
			if defs[j].Kind == KindNull && cell != "" {
				defs[j].Kind = parseValue(cell).Kind
				pending--
			}
		}
	}
	for j := range defs {
		if defs[j].Kind == KindNull {
			defs[j].Kind = KindString
		}
	}
	return nil
}

// drain reads the rest of the input once err has stopped the load and
// returns the first read error or ragged record it meets, else err. The
// records of a file are checked before its cells: a loader that buffered
// the whole file before parsing reported those first, and this one does
// too.
func (s *csvSource) drain(err error) error {
	for {
		if _, rerr := s.read(); rerr == io.EOF {
			return err
		} else if rerr != nil {
			return rerr
		}
	}
}

// csvBlock holds up to size = csvBlockRows(width) records column-major:
// column j's cells are cells[j*size:][:rows].
type csvBlock struct {
	cells []string
	row0  int // data rows before this block
	rows  int
}

// parse streams the remaining records into cols. The calling goroutine
// fills blocks while a second one parses each full block, one column per
// par work item; two blocks alternate between them. Each column is
// filled in row order by one goroutine at a time, so the result does not
// depend on the worker count. After a cell error the remaining blocks are
// read but not parsed, and a read error or ragged record anywhere in the
// file wins over the cell error, as in drain.
func (s *csvSource) parse(cols []*csvColumn) error {
	size := csvBlockRows(len(cols))
	free := make(chan *csvBlock, 2) // both blocks: one filling, one parsing
	for range 2 {
		free <- &csvBlock{cells: make([]string, size*len(cols))}
	}
	full := make(chan *csvBlock)
	var cellErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		workers := par.Resolve(0)
		for b := range full {
			if cellErr == nil {
				cellErr = parseBlock(b, size, cols, workers)
			}
			free <- b
		}
	}()

	var readErr error
	b, rows := <-free, 0
	for {
		rec, err := s.next()
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		for j, cell := range rec {
			b.cells[j*size+b.rows] = cell
		}
		b.rows++
		rows++
		if b.rows == size {
			full <- b
			b = <-free
			b.row0, b.rows = rows, 0
		}
	}
	if b.rows > 0 {
		full <- b
	}
	close(full)
	<-done
	if readErr != nil {
		return readErr
	}
	return cellErr
}

// parseBlock appends one block to every column, in parallel across
// columns, and reports the failing cell a row-at-a-time parse would have
// met first: the smallest (row, column).
func parseBlock(b *csvBlock, size int, cols []*csvColumn, workers int) error {
	par.ForEach(len(cols), workers, func(j int) error {
		cols[j].parse(b.cells[j*size:][:b.rows])
		return nil
	})
	var first *csvColumn
	for _, col := range cols {
		if col.err != nil && (first == nil || col.errAt < first.errAt) {
			first = col
		}
	}
	if first == nil {
		return nil
	}
	return fmt.Errorf("dataset: csv row %d: %w", b.row0+first.errAt+1, first.err)
}

// csvColumn is one column under construction by the loader.
type csvColumn struct {
	c     *Column
	seen  bool // a non-empty cell was parsed and its kind checked
	errAt int  // index in the last block of the cell that failed
	err   error
}

// parse appends one block's cells. The column's first non-empty cell is
// checked against its kind first: when the sidecar set a kind that the
// cell's inferred kind contradicts (other than a whole number in a float
// column), the column takes the inferred kind — it holds only NULLs so
// far — so that later cells fail where inference would have made them
// fail, and the sidecar check reports the mismatch once the data is in.
func (col *csvColumn) parse(cells []string) {
	if !col.seen {
		if i := slices.IndexFunc(cells, func(c string) bool { return c != "" }); i >= 0 {
			col.seen = true
			k := parseValue(cells[i]).Kind
			if k != col.c.Def.Kind && !(k == KindInt && col.c.Def.Kind == KindFloat) {
				col.c = col.c.nullsAs(k)
			}
		}
	}
	col.errAt, col.err = col.c.appendTokens(cells)
}

// ReadCSVFile is ReadCSV over a file path; the table is named after the
// path's base name without extension.
func ReadCSVFile(path string) (*Table, error) { return readCSVFile(path, nil) }

func readCSVFile(path string, sf *schemaFile) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".csv")
	return readCSV(base, f, sf)
}

// writeCSV writes the table, header first.
func writeCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.Schema.Len())
	for i, def := range t.Schema.Columns {
		header[i] = def.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, t.Schema.Len())
	for i := 0; i < t.NumRows(); i++ {
		for j, c := range t.Cols {
			v := c.Value(i)
			if v.IsNull() {
				rec[j] = ""
			} else {
				rec[j] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeCSVFile writes the table to a file path.
func writeCSVFile(t *Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return writeCSV(t, f)
}

// AssignRoles marks the named columns as dimensions and measures. Unlisted
// columns keep their current role. Unknown names are an error.
func AssignRoles(t *Table, dims, measures []string) error {
	set := func(names []string, role Role) error {
		for _, n := range names {
			i := t.Schema.Index(n)
			if i < 0 {
				return fmt.Errorf("dataset: table %q has no column %q", t.Name, n)
			}
			t.Schema.Columns[i].Role = role
			t.Cols[i].Def.Role = role
		}
		return nil
	}
	if err := set(dims, RoleDimension); err != nil {
		return err
	}
	if err := set(measures, RoleMeasure); err != nil {
		return err
	}
	t.version++ // roles are part of the content fingerprint
	return nil
}
