package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// schemaFile is the JSON sidecar format that preserves what CSV cannot:
// column kinds and dimension/measure roles.
type schemaFile struct {
	Version int             `json:"version"`
	Table   string          `json:"table"`
	Columns []schemaFileCol `json:"columns"`
}

type schemaFileCol struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Role string `json:"role"`
}

const schemaFileVersion = 1

// WriteSchema writes the table's schema (kinds and roles) as JSON, the
// sidecar companion to WriteCSV.
func WriteSchema(t *Table, w io.Writer) error {
	sf := schemaFile{Version: schemaFileVersion, Table: t.Name}
	for _, def := range t.Schema.Columns {
		sf.Columns = append(sf.Columns, schemaFileCol{
			Name: def.Name, Kind: def.Kind.String(), Role: def.Role.String(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sf)
}

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

func decodeSchemaFile(r io.Reader) (*schemaFile, error) {
	var sf schemaFile
	if err := json.NewDecoder(r).Decode(&sf); err != nil {
		return nil, fmt.Errorf("dataset: decoding schema sidecar: %w", err)
	}
	if sf.Version != schemaFileVersion {
		return nil, fmt.Errorf("dataset: schema sidecar version %d, want %d", sf.Version, schemaFileVersion)
	}
	return &sf, nil
}

// kinds maps each column the sidecar names to the kind it gives it,
// KindNull for a kind this version does not know (the sidecar check
// rejects that once the data is loaded). A nil sidecar names none.
func (sf *schemaFile) kinds() map[string]Kind {
	if sf == nil {
		return nil
	}
	m := make(map[string]Kind, len(sf.Columns))
	for _, col := range sf.Columns {
		if _, dup := m[col.Name]; dup {
			continue
		}
		m[col.Name] = KindNull
		for k := KindInt; k <= KindBool; k++ {
			if k.String() == col.Kind {
				m[col.Name] = k
			}
		}
	}
	return m
}

// apply checks the sidecar's columns and kinds against t, column by
// column in sidecar order, then applies its roles and name.
func (sf *schemaFile) apply(t *Table) error {
	var dims, measures []string
	for _, col := range sf.Columns {
		i := t.Schema.Index(col.Name)
		if i < 0 {
			return fmt.Errorf("dataset: sidecar column %q not in table", col.Name)
		}
		kind := t.Schema.Columns[i].Kind
		if kind.String() != col.Kind {
			return fmt.Errorf("dataset: column %q is %s in the data but %s in the sidecar",
				col.Name, kind, col.Kind)
		}
		switch col.Role {
		case "dimension":
			dims = append(dims, col.Name)
		case "measure":
			measures = append(measures, col.Name)
		case "other":
		default:
			return fmt.Errorf("dataset: sidecar column %q has unknown role %q", col.Name, col.Role)
		}
	}
	if sf.Table != "" {
		t.Name = sf.Table
	}
	return AssignRoles(t, dims, measures)
}

// schemaPathFor derives the sidecar path for a CSV path.
func schemaPathFor(csvPath string) string {
	return strings.TrimSuffix(csvPath, ".csv") + ".schema.json"
}

// WriteCSVWithSchema writes the table to csvPath plus a .schema.json
// sidecar next to it.
func WriteCSVWithSchema(t *Table, csvPath string) error {
	if err := WriteCSVFile(t, csvPath); err != nil {
		return err
	}
	f, err := os.Create(schemaPathFor(csvPath))
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteSchema(t, f)
}

// ReadCSVWithSchema loads a CSV with the .schema.json sidecar next to it,
// when one exists: the sidecar is read first, its kinds define the columns
// it names and its roles and name are applied to the table. A column the
// sidecar calls float may begin with a whole number, which inference alone
// would make an int column, and a column with no non-empty cell (every
// column of an empty table) takes the sidecar's kind, where inference
// alone would make it a string column; every other disagreement between
// the sidecar and the data is an error. Without a sidecar it behaves like
// ReadCSVFile.
func ReadCSVWithSchema(csvPath string) (*Table, error) {
	f, err := os.Open(schemaPathFor(csvPath))
	if os.IsNotExist(err) {
		return ReadCSVFile(csvPath)
	}
	if err != nil {
		return nil, err
	}
	sf, err := decodeSchemaFile(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	return readCSVFile(csvPath, sf)
}
