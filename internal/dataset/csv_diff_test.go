package dataset_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"viewseeker/internal/dataset"
	"viewseeker/internal/store"
)

// The typed, block-parallel loader must reproduce the boxed row-at-a-time
// loader it replaced (kept as dataset.OracleReadCSV): wherever the oracle
// loads a table, the loader's is identical cell for cell, bitmap for
// bitmap and by content hash; wherever the oracle fails, the loader fails
// at the same data row and column (or with the same message, for failures
// that name no row). The deliberate differences are two columns whose
// sidecar kind the oracle rejects and the loader takes: a column the
// sidecar calls float whose first non-empty cell is whole (the oracle
// infers int), and a column with no non-empty cell that the sidecar gives
// any kind (the oracle infers string). Wherever the oracle fails a sidecar
// kind check, the loader is checked against dataset.SidecarReference
// instead, which departs from the oracle in exactly those two cases.

var (
	rowErr     = regexp.MustCompile(`csv row (\d+)[: ]`)
	raggedErr  = regexp.MustCompile(`has \d+ fields, header has \d+$`)
	sidecarErr = regexp.MustCompile(`in the data but \w+ in the sidecar$`)
	errColumn  = regexp.MustCompile(`column "[^"]*"$`)
)

// oracleLoad is the old loading path: the oracle, then ApplySchema.
func oracleLoad(text, sidecar string) (*dataset.Table, error) {
	t, err := dataset.OracleReadCSV("t", strings.NewReader(text))
	if err != nil || sidecar == "" {
		return t, err
	}
	if err := dataset.ApplySchema(t, strings.NewReader(sidecar)); err != nil {
		return nil, err
	}
	return t, nil
}

// diffLoad loads text (with its sidecar, "" for none) through the loader
// and the oracle and describes any disagreement.
func diffLoad(text, sidecar string) error {
	got, gerr := dataset.ReadCSVSidecar("t", strings.NewReader(text), sidecar)
	want, werr := oracleLoad(text, sidecar)
	if werr != nil && sidecarErr.MatchString(werr.Error()) {
		want, werr = dataset.SidecarReference(text, sidecar)
	}
	switch {
	case werr == nil && gerr == nil:
		return sameTable(want, got)
	case werr == nil:
		return fmt.Errorf("oracle loads the table, loader fails: %v", gerr)
	case gerr == nil:
		return fmt.Errorf("oracle fails (%v), loader loads the table", werr)
	}
	wrow, grow := failedRow(werr, text), failedRow(gerr, text)
	if wrow != grow {
		return fmt.Errorf("oracle fails at row %d (%v), loader at row %d (%v)", wrow, werr, grow, gerr)
	}
	if raggedErr.MatchString(werr.Error()) &&
		raggedErr.FindString(werr.Error()) != raggedErr.FindString(gerr.Error()) {
		return fmt.Errorf("ragged record reported as %q, oracle %q", gerr, werr)
	}
	if errColumn.FindString(werr.Error()) != errColumn.FindString(gerr.Error()) {
		return fmt.Errorf("loader fails with %q, oracle with %q", gerr, werr)
	}
	if wrow == 0 && werr.Error() != gerr.Error() {
		return fmt.Errorf("loader fails with %q, oracle with %q", gerr, werr)
	}
	return nil
}

// failedRow is the 1-based data row an error names, 0 for none. The
// oracle's ragged-record error names none; its row is the first record
// whose width differs from the header's.
func failedRow(err error, text string) int {
	if m := rowErr.FindStringSubmatch(err.Error()); m != nil {
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if !raggedErr.MatchString(err.Error()) {
		return 0
	}
	cr := csv.NewReader(strings.NewReader(text))
	cr.FieldsPerRecord = -1
	header, _ := cr.Read()
	for row := 1; ; row++ {
		rec, err := cr.Read()
		if err != nil {
			return -1
		}
		if len(rec) != len(header) {
			return row
		}
	}
}

// sameTable describes the first difference between two loaded tables:
// name, schema, row count, typed cells (floats by bits), null bitmaps
// (length included) and content hash.
func sameTable(want, got *dataset.Table) error {
	if want.Name != got.Name || want.NumRows() != got.NumRows() || len(want.Cols) != len(got.Cols) {
		return fmt.Errorf("table %q %d×%d, want %q %d×%d",
			got.Name, got.NumRows(), len(got.Cols), want.Name, want.NumRows(), len(want.Cols))
	}
	if !reflect.DeepEqual(want.Schema.Columns, got.Schema.Columns) {
		return fmt.Errorf("schema %v, want %v", got.Schema.Columns, want.Schema.Columns)
	}
	for j, w := range want.Cols {
		g := got.Cols[j]
		if g.Def != got.Schema.Columns[j] {
			return fmt.Errorf("column %d is %v, schema says %v", j, g.Def, got.Schema.Columns[j])
		}
		if !reflect.DeepEqual(w.Ints, g.Ints) || !reflect.DeepEqual(w.Strs, g.Strs) ||
			!reflect.DeepEqual(w.Bools, g.Bools) || !sameFloats(w.Floats, g.Floats) {
			return fmt.Errorf("column %q cells differ", w.Def.Name)
		}
		if !reflect.DeepEqual(w.NullBitmap(), g.NullBitmap()) {
			return fmt.Errorf("column %q null bitmap %x, want %x", w.Def.Name, g.NullBitmap(), w.NullBitmap())
		}
	}
	if store.HashTable(want) != store.HashTable(got) {
		return fmt.Errorf("content hashes differ")
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// csvCase is one random CSV with an optional sidecar ("" for none).
type csvCase struct{ Text, Sidecar string }

// Column flavors of the generator.
const (
	flavorInt = iota
	flavorFloat
	flavorWholeFloat // float cells, the first non-empty one whole
	flavorSpecial    // float cells mixed with NaN/±Inf tokens
	flavorBool
	flavorString
	flavorNull // every cell empty
	numFlavors
)

// Generate builds a random table: up to five columns of the flavors
// above, NULLs at a per-column rate, benign cross-kind cells (bools and
// ints in float columns, floats in int columns, which truncate), now and
// then one cell that may not coerce or one ragged record, and a quarter of the time
// more than one parse block of records. Half the cases carry a sidecar,
// mostly true to the flavors; a few omit a column, misstate a kind or
// name a column the header lacks.
func (csvCase) Generate(r *rand.Rand, _ int) reflect.Value {
	ncols := 1 + r.Intn(5)
	nrows := r.Intn(40)
	big := r.Intn(4) == 0
	if big {
		ncols = 3 + r.Intn(3)
		nrows = dataset.CSVBlockRows(ncols) + r.Intn(2*dataset.CSVBlockRows(ncols))
	}
	flavors := make([]int, ncols)
	nullRate := make([]float64, ncols)
	header := make([]string, ncols)
	for j := range flavors {
		flavors[j] = r.Intn(numFlavors)
		nullRate[j] = []float64{0, 0, 0.05, 0.5}[r.Intn(4)]
		header[j] = "c" + strconv.Itoa(j)
		if r.Intn(20) == 0 {
			header[j] = " " + header[j] + " "
		}
	}
	if ncols > 1 && r.Intn(30) == 0 {
		header[1] = header[0]
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(header)
	seen := make([]bool, ncols)
	// Up to two bad cells share a row, so the first column must win; a
	// ragged record may follow a bad cell by blocks, so the record error
	// must still win.
	badRow, badCols := -1, []int{r.Intn(ncols), r.Intn(ncols)}
	if r.Intn(4) == 0 && nrows > 0 {
		badRow = r.Intn(nrows)
	}
	raggedRow := -1
	if r.Intn(8) == 0 && nrows > 0 {
		raggedRow = r.Intn(nrows)
	}
	if big && r.Intn(4) == 0 {
		badRow, raggedRow = r.Intn(nrows/4), nrows-1
	}
	rec := make([]string, ncols)
	for i := 0; i < nrows; i++ {
		for j := range rec {
			rec[j] = cell(r, flavors[j], nullRate[j], seen[j])
			seen[j] = seen[j] || rec[j] != ""
		}
		if i == badRow {
			for _, j := range badCols {
				rec[j] = []string{"not a number", "1e400", "1"}[r.Intn(3)]
			}
		}
		out := rec
		if i == raggedRow {
			if r.Intn(2) == 0 {
				out = append(rec[:len(rec):len(rec)], "extra")
			} else {
				out = rec[:len(rec)-1]
			}
		}
		w.Write(out)
	}
	w.Flush()
	c := csvCase{Text: buf.String()}
	if r.Intn(2) == 0 {
		c.Sidecar = sidecarFor(r, header, flavors)
	}
	return reflect.ValueOf(c)
}

// cell draws one token of the flavor; seen is whether the column has a
// non-empty cell already. Only badRow in Generate draws a cell that cannot
// coerce.
func cell(r *rand.Rand, flavor int, nullRate float64, seen bool) string {
	if flavor == flavorNull || r.Float64() < nullRate {
		return ""
	}
	odd := r.Intn(25) == 0
	switch flavor {
	case flavorInt:
		if odd {
			return []string{"2.5", "-7.9", "true", "-0", "+12", "1e3", "9223372036854775807"}[r.Intn(7)]
		}
		return strconv.Itoa(r.Intn(2000) - 1000)
	case flavorWholeFloat:
		if !seen || r.Intn(2) == 0 {
			return strconv.Itoa(r.Intn(200) - 100)
		}
		fallthrough
	case flavorFloat:
		if odd {
			return []string{"-0", "0", "-0.0", "3", "true", "false", "1e-320", "0x1p-2", "-12"}[r.Intn(9)]
		}
		return strconv.FormatFloat(r.NormFloat64()*1e3, 'g', -1, 64)
	case flavorSpecial:
		if r.Intn(3) == 0 {
			return []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "-inf", "infinity"}[r.Intn(7)]
		}
		return strconv.FormatFloat(r.Float64(), 'g', -1, 64)
	case flavorBool:
		if odd {
			return []string{"T", "F", "TRUE", "False"}[r.Intn(4)]
		}
		return strconv.FormatBool(r.Intn(2) == 0)
	default:
		const alphabet = "abcxyz ,\"\n-0123"
		b := []byte{"abcxyz"[r.Intn(6)]} // a letter first, so the column infers string
		for i := r.Intn(6); i > 0; i-- {
			b = append(b, alphabet[r.Intn(len(alphabet))])
		}
		return string(b)
	}
}

// sidecarFor writes a sidecar for the header: each column's kind is its
// flavor's, an all-NULL column's a random one.
func sidecarFor(r *rand.Rand, header []string, flavors []int) string {
	kinds := []string{"int", "float", "float", "float", "bool", "string"}
	roles := []string{"dimension", "measure", "other"}
	type col struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
		Role string `json:"role"`
	}
	sf := struct {
		Version int    `json:"version"`
		Table   string `json:"table"`
		Columns []col  `json:"columns"`
	}{Version: 1}
	if r.Intn(2) == 0 {
		sf.Table = "tbl"
	}
	for j, h := range header {
		if r.Intn(15) == 0 {
			continue // the loader infers this column
		}
		c := col{Name: strings.TrimSpace(h), Role: roles[r.Intn(3)]}
		if flavors[j] == flavorNull || r.Intn(30) == 0 {
			c.Kind = []string{"int", "float", "bool", "string", "string", "string", "string", "string"}[r.Intn(8)]
		} else {
			c.Kind = kinds[flavors[j]]
		}
		sf.Columns = append(sf.Columns, c)
	}
	if r.Intn(30) == 0 {
		sf.Columns = append(sf.Columns, col{Name: "ghost", Kind: "int", Role: "other"})
	}
	b, _ := json.Marshal(sf)
	return string(b)
}

func TestReadCSVMatchesOracleProperty(t *testing.T) {
	prop := func(c csvCase) bool {
		if err := diffLoad(c.Text, c.Sidecar); err != nil {
			t.Errorf("%v\nsidecar: %s\ncsv (%d bytes):\n%.2000s", err, c.Sidecar, len(c.Text), c.Text)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}
	if testing.Short() {
		cfg.MaxCount = 30
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestLoadCSVMatchesOracle runs the paper's three generated workloads
// through SaveCSVWithSchema and back: the loader must give the oracle's
// table, and the generated table's content hash.
func TestLoadCSVMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	for _, orig := range []*dataset.Table{
		dataset.GenerateSYN(dataset.SYNConfig{Rows: 5000, Seed: 3}),
		dataset.GenerateDIAB(dataset.DIABConfig{Rows: 5000, Seed: 3}),
		dataset.GenerateNBA(dataset.NBAConfig{Rows: 5000, Seed: 3}),
	} {
		path := filepath.Join(dir, orig.Name+".csv")
		if err := dataset.WriteCSVWithSchema(orig, path); err != nil {
			t.Fatal(err)
		}
		got, err := dataset.ReadCSVWithSchema(path)
		if err != nil {
			t.Fatalf("%s: %v", orig.Name, err)
		}
		if store.HashTable(got) != store.HashTable(orig) {
			t.Errorf("%s: loaded content hash differs from the generated table's", orig.Name)
		}
		want, err := dataset.OracleReadCSV(orig.Name, mustCSV(t, orig))
		if err != nil {
			t.Fatal(err)
		}
		sidecar := mustSidecar(t, orig)
		if err := dataset.ApplySchema(want, strings.NewReader(sidecar)); err != nil {
			t.Fatalf("%s: oracle: %v", orig.Name, err)
		}
		if err := sameTable(want, got); err != nil {
			t.Errorf("%s: %v", orig.Name, err)
		}
	}
}

func mustCSV(t *testing.T, tab *dataset.Table) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func mustSidecar(t *testing.T, tab *dataset.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteSchema(tab, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestReadCSVRecordErrorsWin(t *testing.T) {
	// The oracle read every record before parsing a cell, so a ragged
	// record anywhere in the file wins over a duplicate column name and
	// over a cell error blocks earlier.
	for _, text := range []string{
		"a,a\n1,2\n3\n",
		"v\n1\nabc\n" + strings.Repeat("1\n", 3*dataset.CSVBlockRows(1)) + "2,3\n",
	} {
		if err := diffLoad(text, ""); err != nil {
			t.Error(err)
		}
		_, err := dataset.ReadCSV("t", strings.NewReader(text))
		if err == nil || !raggedErr.MatchString(err.Error()) {
			t.Errorf("err = %v, want the ragged record", err)
		}
	}
}

// FuzzReadCSV pits the loader against the oracle on arbitrary text. Each
// byte of kinds, cycled over the header, picks one column's sidecar entry
// (omitted, int, float, string, bool or an unknown kind, with a role);
// empty kinds means no sidecar.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2.5,\n", "")
	f.Add("a,b\n1,x\n2.5,\n", "\x08\x03")
	f.Add("m\n2\n2.5\n", "\x02")
	f.Add("m\n2.5\n2\n", "\x01")
	f.Add("a,b\n1\n", "")
	f.Add("a,a\n1,2\n", "")
	f.Add("x,y,z\n,,\nNaN,-0,true\n-Inf,1e400,1\n", "\x02\x01\x04")
	f.Add("s,n\n\"q,\"\"\n\",7\n,\n", "\x03\x07")
	f.Add("v\n1\nabc\n", "")
	f.Add("a,a\n1,2\n3\n", "")
	f.Fuzz(func(t *testing.T, text, kinds string) {
		sidecar := ""
		if kinds != "" {
			cr := csv.NewReader(strings.NewReader(text))
			header, err := cr.Read()
			if err != nil {
				return
			}
			sidecar = fuzzSidecar(header, kinds)
		}
		if err := diffLoad(text, sidecar); err != nil {
			t.Fatalf("%v\nsidecar: %s", err, sidecar)
		}
	})
}

func fuzzSidecar(header []string, kinds string) string {
	var cols []string
	for j, h := range header {
		b := kinds[j%len(kinds)]
		kind := []string{"", "int", "float", "string", "bool", "banana"}[b%6]
		if kind == "" {
			continue
		}
		role := []string{"dimension", "measure", "other"}[b/6%3]
		name, _ := json.Marshal(strings.TrimSpace(h))
		cols = append(cols, fmt.Sprintf(`{"name":%s,"kind":%q,"role":%q}`, name, kind, role))
	}
	return `{"version":1,"table":"","columns":[` + strings.Join(cols, ",") + `]}`
}
