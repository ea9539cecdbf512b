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

// sidecarReference is the reference where the oracle fails only at a
// sidecar kind check the typed loader passes on purpose: a column the
// sidecar calls float that begins with a whole number, and a column with
// no non-empty cell (every column of an empty table) that the sidecar
// gives a kind. It is the oracle's parse with those columns stored in the
// sidecar's kind, then the sidecar applied; where neither case applies
// it fails as the oracle does. The caller has seen the oracle read every
// record, so records here are well-formed.
func sidecarReference(text, sidecar string) (*Table, error) {
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
		defs[j] = ColumnDef{Name: strings.TrimSpace(h), Kind: KindNull}
		for _, row := range rows {
			if row[j] != "" {
				defs[j].Kind = ParseValue(row[j]).Kind
				break
			}
		}
		switch sk := sidecarKinds[defs[j].Name]; {
		case defs[j].Kind == KindInt && sk == KindFloat:
			defs[j].Kind = KindFloat
		case defs[j].Kind == KindNull && sk != KindNull:
			defs[j].Kind = sk
		case defs[j].Kind == KindNull:
			defs[j].Kind = KindString
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
	if err := sf.apply(t); err != nil {
		return nil, err
	}
	return t, nil
}
