package live

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/store"
	"viewseeker/internal/wal"
)

// v1Checkpoint is the whole-table checkpoint format 1 wrote to
// <wal>.ckpt: a gob of this envelope around the dataset binary encoding
// of the table version at Seq. Open reads it only to migrate it.
type v1Checkpoint struct {
	Version     int
	BaseHash    string
	Seq         uint64
	WrittenUnix int64
	Table       []byte
}

// checkpointPath returns where a format-1 checkpoint for the WAL at
// walPath lived.
func checkpointPath(walPath string) string { return walPath + ".ckpt" }

// readV1Checkpoint loads the format-1 checkpoint at path and its table.
// A missing file is (nil, nil, nil); a file that exists but does not
// decode, or was taken against another base, is an error: the WAL behind
// it may be compacted, so recovering without it could lose rows.
func readV1Checkpoint(fs faultfs.FS, path string, base *dataset.Table) (*v1Checkpoint, *dataset.Table, error) {
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("live: opening checkpoint %s: %w", path, err)
	}
	defer f.Close()
	var ck v1Checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return nil, nil, fmt.Errorf("live: decoding checkpoint %s: %w", path, err)
	}
	if ck.Version != 1 {
		return nil, nil, fmt.Errorf("live: checkpoint %s has version %d, want 1", path, ck.Version)
	}
	if want := store.HashTable(base); ck.BaseHash != want {
		return nil, nil, fmt.Errorf("live: checkpoint %s was taken against base %s, not %s", path, ck.BaseHash, want)
	}
	tab, err := dataset.ReadBinary(bytes.NewReader(ck.Table))
	if err != nil {
		return nil, nil, fmt.Errorf("live: decoding checkpoint table %s: %w", path, err)
	}
	if tab.NumRows() < base.NumRows() {
		return nil, nil, fmt.Errorf("live: checkpoint %s holds %d rows, fewer than its base's %d", path, tab.NumRows(), base.NumRows())
	}
	return &ck, tab, nil
}

// migrateV1 writes the rows the format-1 checkpoint holds past base as one
// segment of segs, syncs it, removes the old file, and returns the state
// the segment recovers. A crash before the removal leaves the segment and
// the old file side by side; the next Open sees the segment and removes
// the file (removeV1Checkpoint).
func migrateV1(fs faultfs.FS, walPath string, base *dataset.Table, ck *v1Checkpoint, tab *dataset.Table, segs *wal.Log) (checkpointState, error) {
	payload := encodeSegment(ck.BaseHash, tab, base.NumRows(), tab.NumRows(), ck.Seq, ck.WrittenUnix)
	if _, err := segs.Append(payload); err != nil {
		return checkpointState{}, fmt.Errorf("live: migrating checkpoint %s: %w", checkpointPath(walPath), err)
	}
	_, seg, err := decodeSegmentHeader(payload)
	if err != nil {
		return checkpointState{}, err
	}
	cur, err := base.WithSegment(seg)
	if err != nil {
		return checkpointState{}, fmt.Errorf("live: migrating checkpoint %s: %w", checkpointPath(walPath), err)
	}
	if err := removeV1Checkpoint(fs, checkpointPath(walPath)); err != nil {
		return checkpointState{}, err
	}
	return checkpointState{cur: cur, seq: ck.Seq, at: ck.WrittenUnix, segments: 1}, nil
}

// removeV1Checkpoint removes a format-1 checkpoint that a segment now
// covers; a missing file is fine.
func removeV1Checkpoint(fs faultfs.FS, path string) error {
	if err := fs.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("live: removing migrated checkpoint %s: %w", path, err)
	}
	return nil
}
