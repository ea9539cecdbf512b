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
