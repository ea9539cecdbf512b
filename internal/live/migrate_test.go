package live

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"viewseeker/internal/dataset"
)

// migrationBase is the base table testdata/parent-v1.wal{,.ckpt} were
// written against: every value kind, with NULLs in every column.
func migrationBase() *dataset.Table {
	tab := dataset.NewTable("mig", dataset.MustSchema(
		dataset.ColumnDef{Name: "i", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "f", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "s", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "b", Kind: dataset.KindBool, Role: dataset.RoleDimension},
	))
	for _, row := range migrationRows(-1) {
		tab.MustAppendRow(row...)
	}
	return tab
}

// migrationRows is batch i of the fixture (-1: the base rows): 4+i rows,
// one NULL per row in a column that rotates with the row.
func migrationRows(i int) [][]dataset.Value {
	rows := make([][]dataset.Value, 4+i)
	for r := range rows {
		v := (i+1)*100 + r
		rows[r] = []dataset.Value{
			dataset.Int(int64(v) - 250),
			dataset.Float(float64(v) / 8),
			dataset.StringVal(string(rune('p' + v%5))),
			dataset.Bool(v%3 == 0),
		}
		rows[r][(v+i+1)%4] = dataset.Null
	}
	return rows
}

// migrationBatches is how many batches the fixture logged: the first
// migrationCovered are under its checkpoint, the rest in the WAL tail.
const (
	migrationBatches = 5
	migrationCovered = 3
)

// TestParentFormatCheckpointLoads opens a live table whose checkpoint was
// written by the whole-table format 1 (testdata/parent-v1.wal.ckpt,
// covering batches 1–3, beside a WAL compacted to batches 4–5) and
// requires the table the fixture's batches build, row for row. The first
// Open migrates the checkpoint: one segment holding every row past the
// base replaces the file, and a second Open recovers the same table from
// that segment.
func TestParentFormatCheckpointLoads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.wal")
	for _, suffix := range []string{"", ".ckpt"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent-v1.wal"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+suffix, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := tableRows(migrationBase())
	for i := 0; i < migrationBatches; i++ {
		want = append(want, migrationRows(i)...)
	}
	for pass := 0; pass < 2; pass++ {
		lt, rec, err := Open(nil, path, migrationBase(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Segments != 1 || rec.LastSeq != migrationBatches || rec.Replayed != migrationBatches-migrationCovered {
			t.Fatalf("pass %d: %d segments, %d batches through seq %d", pass, rec.Segments, rec.Replayed, rec.LastSeq)
		}
		if got := tableRows(lt.Current()); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: fixture table differs:\n got %v\nwant %v", pass, got, want)
		}
		if st := lt.Status(); st.CheckpointSeq != migrationCovered || st.CheckpointAgeSeconds < 0 {
			t.Fatalf("pass %d: checkpoint state %+v", pass, st)
		}
		if err := lt.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(checkpointPath(path)); !os.IsNotExist(err) {
			t.Fatalf("pass %d: the format-1 checkpoint is still there (%v)", pass, err)
		}
	}
}

// TestMigrationLeftoverRemoved: a crash after the migration's segment was
// synced but before the format-1 file was removed leaves both; the next
// Open recovers from the segment and removes the leftover file unread.
func TestMigrationLeftoverRemoved(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	for _, suffix := range []string{"", ".ckpt"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent-v1.wal"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+suffix, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lt, _, err := Open(nil, path, migrationBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := lt.Current()
	lt.Close()
	if err := os.WriteFile(checkpointPath(path), []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	lt, rec, err := Open(nil, path, migrationBase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	if rec.Segments != 1 {
		t.Fatalf("recovered %d segments, want 1", rec.Segments)
	}
	requireSameTable(t, lt.Current(), want)
	if _, err := os.Stat(checkpointPath(path)); !os.IsNotExist(err) {
		t.Fatalf("the leftover checkpoint is still there (%v)", err)
	}
}
