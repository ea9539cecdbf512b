package live

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/feature"
	"viewseeker/internal/store"
	"viewseeker/internal/view"
	"viewseeker/internal/wal"
)

func TestEmptyBatchRejected(t *testing.T) {
	if _, err := encodeBatch(nil); err == nil {
		t.Fatal("empty batch encoded")
	}
	lt, _, err := Open(nil, filepath.Join(t.TempDir(), "t.wal"), baseTable(t, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	if _, err := lt.Append(nil); err == nil || lt.Seq() != 0 || lt.Status().WalBytes != 0 {
		t.Fatalf("empty append: err %v, seq %d", err, lt.Seq())
	}
}

func TestRaggedBatchRejected(t *testing.T) {
	rows := [][]dataset.Value{{dataset.Int(1), dataset.Int(2)}, {dataset.Int(3)}}
	if _, err := encodeBatch(rows); err == nil {
		t.Fatal("ragged batch encoded")
	}
}

// fixtureRows are the batches internal/wal/testdata/parent-v1.wal holds:
// batch i has 2+i rows covering every value kind.
func fixtureRows(i int) [][]dataset.Value {
	rows := make([][]dataset.Value, 2+i)
	for r := range rows {
		v := i*100 + r
		rows[r] = []dataset.Value{
			dataset.Int(int64(v)),
			dataset.Float(float64(v) * 0.5),
			dataset.StringVal("cat"),
			dataset.Bool(r%2 == 0),
			dataset.Null,
		}
	}
	return rows
}

// TestParentFormatWALReplays opens a WAL written before the frame log and
// the batch codec were split apart and checks it replays to the same
// batches: the split did not move a byte of the on-disk format.
func TestParentFormatWALReplays(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "wal", "testdata", "parent-v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	base := dataset.NewTable("fx", dataset.MustSchema(
		dataset.ColumnDef{Name: "i", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "f", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "s", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "b", Kind: dataset.KindBool, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "n", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
	))
	lt, rec, err := Open(nil, path, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	var want []Batch
	for i := 0; i < 4; i++ {
		want = append(want, Batch{Seq: uint64(i + 1), Rows: fixtureRows(i)})
	}
	if rec.TornTail || !reflect.DeepEqual(rec.Batches, want) {
		t.Fatalf("fixture replay: torn %v, batches %+v", rec.TornTail, rec.Batches)
	}
	if lt.Current().NumRows() != 14 {
		t.Fatalf("replayed table has %d rows, want 14", lt.Current().NumRows())
	}
	// Re-encoding the replayed batches reproduces the fixture's payloads.
	lt.Close()
	var frames [][]byte
	if _, err := wal.Scan(nil, path, 0, func(_ uint64, p []byte) error {
		frames = append(frames, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, b := range want {
		enc, err := encodeBatch(b.Rows)
		if err != nil || !bytes.Equal(enc, frames[i]) {
			t.Fatalf("batch %d re-encodes differently (err %v)", i, err)
		}
	}
}

// TestUndecodableFrameIsAHardError: a frame that passes its checksum but
// is not a batch was written whole, so it is not a torn tail. Open must
// refuse it rather than truncate it and every batch after it.
func TestUndecodableFrameIsAHardError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := wal.Open(nil, path, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("not a batch")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	before, _ := os.ReadFile(path)
	if _, _, err := Open(nil, path, baseTable(t, 3), Options{}); err == nil || !strings.Contains(err.Error(), "frame 1") {
		t.Fatalf("Open over an undecodable frame: %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("refused log was modified")
	}
}

// FuzzDecodeBatch: decoding arbitrary payload bytes must never panic, and
// whatever decodes must survive an encode/decode round trip unchanged
// (compared as encodings, so NaN payloads compare equal).
func FuzzDecodeBatch(f *testing.F) {
	for i := 0; i < 3; i++ {
		enc, err := encodeBatch(fixtureRows(i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, tagBool, 7})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, tagNull})
	f.Fuzz(func(t *testing.T, p []byte) {
		rows, err := decodeBatch(p)
		if err != nil {
			return
		}
		enc, err := encodeBatch(rows)
		if err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		rows2, err := decodeBatch(enc)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		enc2, err := encodeBatch(rows2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatal("batch does not round-trip")
		}
	})
}

// recordingFS logs the file operations that publish a file: every Sync
// and Close of a file it created, and every Rename.
type recordingFS struct {
	faultfs.FS
	mu  sync.Mutex
	ops []string
}

func (r *recordingFS) log(op, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op+" "+filepath.Base(name))
}

func (r *recordingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, fs: r}, nil
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.log("rename", oldpath)
	return r.FS.Rename(oldpath, newpath)
}

type recordingFile struct {
	faultfs.File
	fs *recordingFS
}

func (f *recordingFile) Write(p []byte) (int, error) {
	f.fs.log("write", f.Name())
	return f.File.Write(p)
}

func (f *recordingFile) Sync() error {
	f.fs.log("sync", f.Name())
	return f.File.Sync()
}

// TestAtomicPublishSyncsBeforeRename: the three writers that publish a
// file by rename — the cache snapshot, the live checkpoint and WAL
// compaction — must fsync the temp file after its last write and before
// the rename makes it visible. Otherwise a crash can leave a renamed but
// empty or partial file under the real name.
func TestAtomicPublishSyncsBeforeRename(t *testing.T) {
	dir := t.TempDir()
	fs := &recordingFS{FS: faultfs.OS{}}

	cache, err := store.OpenFS(fs, filepath.Join(dir, "cache"), 4)
	if err != nil {
		t.Fatal(err)
	}
	res := store.NewVersion(&feature.Matrix{
		Specs: []view.Spec{{Dimension: "d", Measure: "m", Agg: "COUNT", Bins: 4}},
		Names: []string{"KL"}, Rows: [][]float64{{0.25}}, Exact: []bool{true},
	}, baseTable(t, 3), nil)
	if err := cache.Put("fp1", res); err != nil {
		t.Fatal(err)
	}

	lt, _, err := Open(fs, filepath.Join(dir, "t.wal"), baseTable(t, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	if _, err := lt.Append(batch(100, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	l, _, err := wal.Open(fs, filepath.Join(dir, "c.wal"), wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CompactThrough(1); err != nil {
		t.Fatal(err)
	}

	fs.mu.Lock()
	defer fs.mu.Unlock()
	renamed := map[string]bool{}
	for i, op := range fs.ops {
		name, ok := strings.CutPrefix(op, "rename ")
		if !ok {
			continue
		}
		synced := false
		for _, prev := range fs.ops[:i] {
			switch prev {
			case "write " + name:
				synced = false
			case "sync " + name:
				synced = true
			}
		}
		if !synced {
			t.Errorf("%s renamed without a sync after its last write; ops %q", name, fs.ops)
		}
		switch {
		case strings.HasPrefix(name, ".vscache-"):
			renamed["cache snapshot"] = true
		case strings.HasPrefix(name, "t.wal.ckpt.tmp-"):
			renamed["live checkpoint"] = true
		case strings.HasPrefix(name, "c.wal.compact-"):
			renamed["WAL compaction"] = true
		}
	}
	if len(renamed) != 3 {
		t.Fatalf("published by rename: %v, want all three writers; ops %q", renamed, fs.ops)
	}
}
