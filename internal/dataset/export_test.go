package dataset

import (
	"io"
	"strings"
)

// Hooks for the differential tests of package dataset_test, which compare
// content hashes through internal/store — an import this package's own
// tests cannot make.
var (
	OracleReadCSV    = oracleReadCSV
	SidecarReference = sidecarReference
	CSVBlockRows     = csvBlockRows
)

// ApplySchema reads a schema sidecar and applies its roles (and name) to a
// freshly loaded table. Kinds are verified, not coerced: a mismatch means
// the CSV and sidecar have drifted apart and is reported as an error.
func ApplySchema(t *Table, r io.Reader) error {
	sf, err := decodeSchemaFile(r)
	if err != nil {
		return err
	}
	return sf.apply(t)
}

// ReadCSVSidecar is the loader behind ReadCSVWithSchema over in-memory
// text: sidecar is the .schema.json content, "" for none.
func ReadCSVSidecar(name string, r io.Reader, sidecar string) (*Table, error) {
	if sidecar == "" {
		return readCSV(name, r, nil)
	}
	sf, err := decodeSchemaFile(strings.NewReader(sidecar))
	if err != nil {
		return nil, err
	}
	return readCSV(name, r, sf)
}

// Writers the differential tests serialise their random tables with.
var (
	WriteCSV    = writeCSV
	WriteSchema = writeSchema
)
