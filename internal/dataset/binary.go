package dataset

import (
	"encoding/gob"
	"fmt"
	"io"
)

// binaryTable is the gob wire format: schema plus raw column slices. It
// round-trips everything CSV cannot (kinds, roles, NULL positions) and
// loads an order of magnitude faster at the million-row scale the SYN
// testbed uses.
type binaryTable struct {
	Version int
	Name    string
	Columns []binaryColumn
}

type binaryColumn struct {
	Name   string
	Kind   Kind
	Role   Role
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []int
}

const binaryVersion = 1

// WriteBinary serialises the table with encoding/gob.
func WriteBinary(t *Table, w io.Writer) error {
	bt := binaryTable{Version: binaryVersion, Name: t.Name}
	for _, c := range t.Cols {
		bc := binaryColumn{
			Name: c.Def.Name, Kind: c.Def.Kind, Role: c.Def.Role,
			Ints: c.Ints, Floats: c.Floats, Strs: c.Strs, Bools: c.Bools,
		}
		for i := 0; i < c.Len(); i++ {
			if c.IsNull(i) {
				bc.Nulls = append(bc.Nulls, i)
			}
		}
		bt.Columns = append(bt.Columns, bc)
	}
	return gob.NewEncoder(w).Encode(bt)
}

// ReadBinary deserialises a table written by WriteBinary. Input that no
// WriteBinary could have produced — a NULL index outside its column,
// ragged columns — is an error, never a panic.
func ReadBinary(r io.Reader) (*Table, error) {
	var bt binaryTable
	if err := gob.NewDecoder(r).Decode(&bt); err != nil {
		return nil, fmt.Errorf("dataset: decoding binary table: %w", err)
	}
	if bt.Version != binaryVersion {
		return nil, fmt.Errorf("dataset: binary table version %d, want %d", bt.Version, binaryVersion)
	}
	defs := make([]ColumnDef, len(bt.Columns))
	for i, bc := range bt.Columns {
		defs[i] = ColumnDef{Name: bc.Name, Kind: bc.Kind, Role: bc.Role}
	}
	schema, err := NewSchema(defs...)
	if err != nil {
		return nil, err
	}
	t := NewTable(bt.Name, schema)
	for i, bc := range bt.Columns {
		col := t.Cols[i]
		col.Ints, col.Floats, col.Strs, col.Bools = bc.Ints, bc.Floats, bc.Strs, bc.Bools
		for _, n := range bc.Nulls {
			if n < 0 || n >= col.Len() {
				return nil, fmt.Errorf("dataset: binary column %q has NULL index %d outside [0, %d)", bc.Name, n, col.Len())
			}
			col.markNull(n)
		}
	}
	if err := t.sealRows(); err != nil {
		return nil, err
	}
	return t, nil
}
