package live

import (
	"encoding/binary"
	"fmt"

	"viewseeker/internal/dataset"
	"viewseeker/internal/faultfs"
	"viewseeker/internal/store"
	"viewseeker/internal/wal"
)

// checkpointVersion is the checkpoint format version, the first byte of
// every segment; bump on any incompatible change so stale segments error
// instead of misloading. Version 1 was a whole-table gob snapshot
// (migrate.go).
const checkpointVersion = 2

// A checkpoint segment is one frame payload of the segment log:
//
//	u8 checkpointVersion | u32 len | base content hash
//	| u64 first row | u64 WAL seq covered | i64 written (unix seconds)
//	| dataset segment of the rows [first row, first row + rows)
//
// The hash is the ORIGINAL base table's, so VersionRef addresses
// (baseHash@seq) stay stable across checkpoints and restarts, and a
// segment recovered against another base is refused. The rows are the
// ones appended since the previous segment, encoded by the typed column
// codec (dataset.AppendSegment); the WAL frame log around them supplies
// the CRC and torn-tail repair. Segments are never merged: together they
// are exactly the rows appended past base.

// segmentPath returns where the segment log for the WAL at walPath lives.
func segmentPath(walPath string) string { return walPath + ".seg" }

// encodeSegment encodes rows [from, to) of tab as the segment covering
// WAL seq, written at unix second at, in one allocation.
func encodeSegment(baseHash string, tab *dataset.Table, from, to int, seq uint64, at int64) []byte {
	buf := make([]byte, 0, 1+4+len(baseHash)+24)
	buf = append(buf, checkpointVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(baseHash)))
	buf = append(buf, baseHash...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(from))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(at))
	return dataset.AppendSegment(buf, tab, from, to)
}

// segmentHeader is what a segment says about itself besides its rows.
type segmentHeader struct {
	baseHash string
	firstRow uint64
	seq      uint64
	at       int64
}

// decodeSegmentHeader splits a segment payload into its header and its
// dataset segment.
func decodeSegmentHeader(p []byte) (segmentHeader, []byte, error) {
	var h segmentHeader
	if len(p) < 5 {
		return h, nil, fmt.Errorf("segment too short (%d bytes)", len(p))
	}
	if p[0] != checkpointVersion {
		return h, nil, fmt.Errorf("segment has version %d, want %d", p[0], checkpointVersion)
	}
	n := int(binary.LittleEndian.Uint32(p[1:5]))
	if n > len(p)-5-24 {
		return h, nil, fmt.Errorf("segment header truncated")
	}
	h.baseHash = string(p[5 : 5+n])
	rest := p[5+n:]
	h.firstRow = binary.LittleEndian.Uint64(rest[0:8])
	h.seq = binary.LittleEndian.Uint64(rest[8:16])
	h.at = int64(binary.LittleEndian.Uint64(rest[16:24]))
	return h, rest[24:], nil
}

// checkpointState is what the checkpoint segments recover: the table
// version they build over base and what the newest one covers.
type checkpointState struct {
	cur      *dataset.Table
	seq      uint64 // WAL seq the newest segment covers (0: none)
	at       int64  // its write time (unix seconds; 0: none)
	segments int
}

// readSegments applies every intact segment of the log at path to base
// in order, without modifying the file. A segment that passes its
// checksum but does not decode, was taken against another base, or does
// not start at the row and seq where the previous one ended is an error;
// the returned Recovery reports any torn tail, which Open drops only if
// the WAL still covers it (walCovers).
func readSegments(fs faultfs.FS, path string, base *dataset.Table) (checkpointState, *wal.Recovery, error) {
	ck := checkpointState{cur: base}
	rec, err := wal.Scan(fs, path, 0, func(frame uint64, p []byte) error {
		h, seg, err := decodeSegmentHeader(p)
		if err != nil {
			return fmt.Errorf("live: checkpoint segment %s frame %d: %w", path, frame, err)
		}
		if want := store.HashTable(base); h.baseHash != want {
			return fmt.Errorf("live: checkpoint segment %s frame %d was taken against base %s, not %s",
				path, frame, h.baseHash, want)
		}
		if h.firstRow != uint64(ck.cur.NumRows()) || h.seq <= ck.seq {
			return fmt.Errorf("live: checkpoint segment %s frame %d starts at row %d and covers seq %d, after row %d and seq %d",
				path, frame, h.firstRow, h.seq, ck.cur.NumRows(), ck.seq)
		}
		next, err := ck.cur.WithSegment(seg)
		if err != nil {
			return fmt.Errorf("live: checkpoint segment %s frame %d: %w", path, frame, err)
		}
		ck = checkpointState{cur: next, seq: h.seq, at: h.at, segments: ck.segments + 1}
		return nil
	})
	return ck, rec, err
}

// walCovers returns an error unless the WAL at path holds every batch
// past seq, which is what makes a torn segment tail safe to drop: a crash
// mid-checkpoint leaves the segment torn and the WAL, synced before the
// segment was written and compacted only after it was synced, with its
// batches. A WAL already compacted past the torn segment does not, and
// dropping the segment would lose its rows.
func walCovers(fs faultfs.FS, path string, seq uint64) error {
	rec, err := wal.Scan(fs, path, seq, nil)
	if err != nil {
		return err
	}
	if rec.LastSeq <= seq {
		return fmt.Errorf("live: checkpoint segment log %s has a torn tail past seq %d that the WAL %s does not cover",
			segmentPath(path), seq, path)
	}
	return nil
}
