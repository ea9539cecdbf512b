package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// ReadCSV loads a table from CSV. The first record is the header. Each
// column's kind is inferred from its first non-empty cell (int, float,
// bool, string, in that order of preference; an all-empty column is a
// string column); later cells that fail to coerce are an error.
// Roles default to RoleOther; callers assign roles with AssignRoles.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv header: %w", err)
	}
	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading csv: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: csv row has %d fields, header has %d", len(rec), len(header))
		}
		rows = append(rows, rec)
	}
	defs := make([]ColumnDef, len(header))
	for j, h := range header {
		kind := KindString
		for _, row := range rows {
			if row[j] == "" {
				continue // NULL tells us nothing about the kind
			}
			kind = ParseValue(row[j]).Kind
			break
		}
		defs[j] = ColumnDef{Name: strings.TrimSpace(h), Kind: kind}
	}
	schema, err := NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	t := NewTable(name, schema)
	vals := make([]Value, len(defs))
	for i, row := range rows {
		for j, cell := range row {
			vals[j] = coerceCell(cell, defs[j].Kind)
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, fmt.Errorf("dataset: csv row %d: %w", i+1, err)
		}
	}
	return t, nil
}

func coerceCell(cell string, kind Kind) Value {
	if cell == "" {
		return Null
	}
	v := ParseValue(cell)
	if v.Kind == kind {
		return v
	}
	switch kind {
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f)
		}
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return Int(i)
		}
	case KindString:
		return StringVal(cell)
	}
	// Fall back to the literal string; Column.Append will reject true
	// mismatches with a useful error.
	return v
}

// ReadCSVFile is ReadCSV over a file path; the table is named after the
// path's base name without extension.
func ReadCSVFile(path string) (*Table, error) {
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
	return ReadCSV(base, f)
}

// WriteCSV writes the table, header first.
func WriteCSV(t *Table, w io.Writer) error {
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

// WriteCSVFile writes the table to a file path.
func WriteCSVFile(t *Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteCSV(t, f)
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
