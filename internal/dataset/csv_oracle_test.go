package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// oracleReadCSV is the buffering, row-at-a-time loader ReadCSV replaced,
// kept verbatim as the reference of the differential tests: it reads every
// record into memory, infers each column's kind from its first non-empty
// cell, then boxes every cell through coerceCell and Table.AppendRow.
func oracleReadCSV(name string, r io.Reader) (*Table, error) {
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

// wholeFloatReference is the reference where the oracle fails only
// because a column the sidecar calls float begins with a whole number —
// the one place the typed loader departs from the oracle on purpose. It
// is the oracle's parse with those columns stored as float, then the
// sidecar applied. The caller has seen the oracle read every record, so
// records here are well-formed.
func wholeFloatReference(text, sidecar string) (*Table, error) {
	sf, err := decodeSchemaFile(strings.NewReader(sidecar))
	if err != nil {
		return nil, err
	}
	cr := csv.NewReader(strings.NewReader(text))
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	header, rows := recs[0], recs[1:]
	sidecarKinds := sf.kinds()
	defs := make([]ColumnDef, len(header))
	for j, h := range header {
		defs[j] = ColumnDef{Name: strings.TrimSpace(h), Kind: KindString}
		for _, row := range rows {
			if row[j] != "" {
				defs[j].Kind = ParseValue(row[j]).Kind
				break
			}
		}
		if defs[j].Kind == KindInt && sidecarKinds[defs[j].Name] == KindFloat {
			defs[j].Kind = KindFloat
		}
	}
	t := NewTable("t", MustSchema(defs...))
	vals := make([]Value, len(defs))
	for i, row := range rows {
		for j, cell := range row {
			vals[j] = coerceCell(cell, defs[j].Kind)
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, fmt.Errorf("dataset: csv row %d: %w", i+1, err)
		}
	}
	if err := sf.apply(t, nil); err != nil {
		return nil, err
	}
	return t, nil
}
