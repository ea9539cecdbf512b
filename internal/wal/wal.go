package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"viewseeker/internal/faultfs"
	"viewseeker/internal/obs"
	"viewseeker/internal/retry"
)

// Options configures a Log.
type Options struct {
	// SyncEvery batches fsyncs: the log syncs after every SyncEvery-th
	// committed frame instead of after each one (and always on Sync and
	// Close). <= 1 syncs every append — the durable default; larger values
	// trade up to SyncEvery-1 most-recent frames on a crash for append
	// throughput. Recovery is unaffected either way: the on-disk prefix is
	// always a valid frame sequence.
	SyncEvery int
	// Retry is the append retry schedule; the zero value selects
	// retry.Default().
	Retry retry.Policy
	// SkipThrough marks the sequence number already covered by an external
	// snapshot: recovery still validates every on-disk frame, but frames
	// with seq <= SkipThrough are not handed to the replay function
	// (counted in Recovery.SkippedFrames instead). This is how a
	// checkpointed log tolerates the crash window between the snapshot
	// becoming durable and the log truncation — duplicate prefix frames
	// are detected by seq and skipped. The log may legitimately begin at
	// any seq in [1, SkipThrough+1]; the chain must be contiguous from
	// there.
	SkipThrough uint64
}

// Metrics are the instruments a Log feeds. Nil fields record nothing, so
// each owner registers only the series it reports under its own names.
type Metrics struct {
	Appends, Bytes               *obs.Counter // committed frames and their on-disk bytes
	Truncations, Compactions     *obs.Counter // torn-append repairs and CompactThrough calls
	RetryBackoffs, RetryExhausts *obs.Counter // the append retry schedule
	LastSeq, DiskBytes           *obs.Gauge
	FsyncSeconds                 *obs.Histogram
}

// headerLen is the fixed frame header: payload length then CRC-32C of the
// payload, both little-endian u32. Length-prefixing finds frame
// boundaries; the checksum rejects torn or bit-rotted payloads.
const headerLen = 8

// seqLen is the u64 sequence number the log writes as the first bytes of
// every frame payload, ahead of the caller's bytes.
const seqLen = 8

// maxPayload bounds a single frame so a corrupted length field can never
// drive recovery into a multi-gigabyte allocation.
const maxPayload = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an append-only log of length-prefixed, checksummed frames, each
// carrying a caller payload under a monotone sequence number. Frames are
// written whole and fsynced on a batching schedule. The write path is
// Append; the recovery path is Open, which scans the committed prefix and
// truncates a torn tail. All methods are safe for concurrent use.
//
// Failure semantics: a write that persists only part of a frame is
// retried by completing the missing suffix — the frame is length-prefixed,
// so the byte stream is position-independent to resume. If retries
// exhaust, the torn tail is truncated away (restoring the committed
// prefix) and the append fails cleanly; if even truncation fails, the log
// is poisoned and every later append errors until the process reopens it —
// an un-repairable tail must never take more frames, because recovery
// would lose everything after the tear.
type Log struct {
	mu        sync.Mutex
	fs        faultfs.FS
	f         faultfs.File
	path      string
	seq       uint64 // last committed sequence number
	committed int64  // bytes of fully committed frames on disk
	sinceSync int
	syncEvery int
	policy    retry.Policy
	poisoned  error // non-nil: the tail is torn and could not be repaired
	m         Metrics
}

// Recovery reports what a scan of the log found on disk.
type Recovery struct {
	// LastSeq is the last committed sequence number: the last frame's seq,
	// or Options.SkipThrough when the log holds nothing past it (0 for an
	// empty, uncheckpointed log).
	LastSeq uint64
	// SkippedFrames counts valid frames not replayed because their seq was
	// already covered by Options.SkipThrough.
	SkippedFrames int
	// CommittedBytes is the on-disk length of the committed prefix.
	CommittedBytes int64
	// TornTail reports whether bytes past the committed prefix were found
	// (and, for Open, truncated).
	TornTail bool
	// TornBytes is how many trailing bytes lie past the committed prefix.
	TornBytes int64
}

// Open opens (creating if needed) the log at path, scans its committed
// frames, and returns the opened Log positioned after them. replay, when
// non-nil, receives every committed frame past opts.SkipThrough in
// sequence order (the payload is only valid during the call); an error
// from it aborts Open with the file untouched. A torn tail — an
// incomplete, checksum-failing or out-of-chain frame, the signature of a
// crash or disk fault mid-write — ends the committed prefix: it and
// everything after it is truncated away and counted in Recovery.TornBytes.
func Open(fs faultfs.FS, path string, opts Options, replay func(seq uint64, payload []byte) error) (*Log, *Recovery, error) {
	if fs == nil {
		fs = faultfs.OS{}
	}
	rec, err := Scan(fs, path, opts.SkipThrough, replay)
	if err != nil {
		return nil, nil, err
	}
	if rec.TornTail {
		if err := fs.Truncate(path, rec.CommittedBytes); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	policy := opts.Retry
	if policy.Attempts == 0 {
		policy = retry.Default()
	}
	l := &Log{
		fs: fs, f: f, path: path,
		seq: rec.LastSeq, committed: rec.CommittedBytes,
		syncEvery: max(opts.SyncEvery, 1), policy: policy,
	}
	return l, rec, nil
}

// Scan reads the log at path front to back without modifying it, handing
// every committed frame past skipThrough to fn (when non-nil) in sequence
// order; the payload is only valid during the call. The committed prefix
// ends at the first frame that is short, oversized, fails its checksum or
// breaks the sequence chain — Open truncates there, Scan only reports it.
// An error from fn stops the scan and is returned. A missing file is an
// empty log.
func Scan(fs faultfs.FS, path string, skipThrough uint64, fn func(seq uint64, payload []byte) error) (*Recovery, error) {
	if fs == nil {
		fs = faultfs.OS{}
	}
	rec := &Recovery{LastSeq: skipThrough}
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return rec, nil
		}
		return nil, fmt.Errorf("wal: opening %s for recovery: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var read int64     // bytes consumed, valid or not
	var prevSeq uint64 // seq of the last valid frame (0: none yet)
	var header [headerLen]byte
	var payload []byte
	for {
		n, err := io.ReadFull(br, header[:])
		read += int64(n)
		length := binary.LittleEndian.Uint32(header[0:4])
		if err == nil {
			if length < seqLen || length > maxPayload {
				break
			}
			payload, err = readPayload(br, payload, int(length))
			read += int64(len(payload))
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break // a short frame: the torn tail starts here
		} else if err != nil {
			return nil, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(header[4:8]) {
			break
		}
		seq := binary.LittleEndian.Uint64(payload[0:seqLen])
		// An uncompacted log starts at 1; a compacted one starts anywhere up
		// to skipThrough+1 (the snapshot covers the rest). Anything else is
		// a foreign or corrupted log.
		if prevSeq == 0 && (seq == 0 || seq > skipThrough+1) || prevSeq != 0 && seq != prevSeq+1 {
			break
		}
		prevSeq = seq
		rec.CommittedBytes += headerLen + int64(length)
		if seq <= skipThrough {
			rec.SkippedFrames++
			continue
		}
		rec.LastSeq = seq
		if fn != nil {
			if err := fn(seq, payload[seqLen:]); err != nil {
				return nil, err
			}
		}
	}
	// Everything past the committed prefix — the frame that failed and
	// whatever follows it — is the torn tail.
	rest, err := io.Copy(io.Discard, br)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	rec.TornBytes = read + rest - rec.CommittedBytes
	rec.TornTail = rec.TornBytes > 0
	return rec, nil
}

// readPayload reads n bytes into buf, growing it by at most 1 MiB ahead of
// the bytes actually read, so a corrupt length field costs an allocation
// bounded by the file, not by the field. On error it returns what it read.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), 1<<20)
		buf = slices.Grow(buf, chunk)
		k, err := io.ReadFull(r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Instrument attaches m to the log. Call once at wiring time; an
// uninstrumented log records nothing.
func (l *Log) Instrument(m Metrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m = m
	m.LastSeq.Set(int64(l.seq))
	m.DiskBytes.Set(l.committed)
}

// SetRetryPolicy replaces the append retry schedule.
func (l *Log) SetRetryPolicy(p retry.Policy) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.policy = p
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Bytes returns the on-disk size of the committed log in bytes. Replay
// cost is proportional to it, which makes it the natural checkpoint
// trigger.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

var errClosed = errors.New("wal: log is closed")

// writableLocked reports why the log cannot take a write, if it cannot.
func (l *Log) writableLocked() error {
	if l.f == nil {
		return errClosed
	}
	if l.poisoned != nil {
		return fmt.Errorf("wal: log has an unrepaired torn tail (reopen to recover): %w", l.poisoned)
	}
	return nil
}

// Append commits payload as one frame under the next sequence number and
// returns that number. The frame is fsynced per the SyncEvery schedule; on
// return it either is durable (or scheduled within the current sync
// window) or the log is exactly as it was — a failed append never leaves
// a half-frame for recovery to trip over (see Log failure semantics). A
// non-nil error with a non-zero seq means the frame committed but its
// fsync failed; the next sync retries.
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writableLocked(); err != nil {
		return 0, err
	}
	if len(payload) > maxPayload-seqLen {
		return 0, fmt.Errorf("wal: %d-byte payload exceeds the %d-byte frame bound", len(payload), maxPayload-seqLen)
	}
	seq := l.seq + 1
	// The frame is the header (length, CRC, seq) followed by the caller's
	// payload, written from where it lies rather than copied behind the
	// header.
	var head [headerLen + seqLen]byte
	binary.LittleEndian.PutUint32(head[0:4], uint32(seqLen+len(payload)))
	binary.LittleEndian.PutUint64(head[headerLen:], seq)
	crc := crc32.Update(crc32.Checksum(head[headerLen:], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(head[4:8], crc)
	frameLen := len(head) + len(payload)

	policy := l.policy
	policy.Backoffs = l.m.RetryBackoffs
	policy.Exhausted = l.m.RetryExhausts
	// written tracks how many frame bytes reached the file across retries:
	// a torn write persists a prefix, so the retry completes the suffix
	// rather than rewriting (and thereby corrupting) the frame.
	written := 0
	err := policy.Do(context.Background(), func() error {
		for written < frameLen {
			rest := payload[max(written-len(head), 0):]
			if written < len(head) {
				rest = head[written:]
			}
			n, werr := l.f.Write(rest)
			written += n
			if werr != nil {
				return werr
			}
		}
		return nil
	})
	if err != nil {
		if written > 0 {
			// Retries exhausted mid-frame: chop the partial frame so the
			// log ends at the committed prefix again.
			if terr := l.fs.Truncate(l.path, l.committed); terr != nil {
				l.poisoned = terr
				return 0, fmt.Errorf("wal: append tore at %d/%d bytes and truncation failed: %w",
					written, frameLen, terr)
			}
			l.m.Truncations.Inc()
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq = seq
	l.committed += int64(frameLen)
	l.m.Appends.Inc()
	l.m.Bytes.Add(int64(frameLen))
	l.m.LastSeq.Set(int64(seq))
	l.m.DiskBytes.Set(l.committed)
	l.sinceSync++
	if l.sinceSync >= l.syncEvery {
		if err := l.syncLocked(); err != nil {
			return seq, fmt.Errorf("wal: fsync after append: %w", err)
		}
	}
	return seq, nil
}

// Sync flushes committed frames to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	l.m.FsyncSeconds.ObserveDuration(time.Since(start))
	if err == nil {
		l.sinceSync = 0
	}
	return err
}

// CompactThrough drops every committed frame with sequence number <= seq
// from the log: the caller has persisted a snapshot covering them, so
// replay no longer needs them. When seq covers the whole log the file is
// truncated to zero in place (the open O_APPEND handle stays valid — later
// appends continue at the new end); otherwise the retained suffix is
// published over the log with faultfs.WriteFileAtomic. The sequence chain
// is NOT reset: the next append still gets the next seq, and recovery
// accepts a log starting past 1 when told the snapshot's coverage via
// Options.SkipThrough.
func (l *Log) CompactThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writableLocked(); err != nil {
		return err
	}
	var kept int64
	if seq >= l.seq {
		if err := l.fs.Truncate(l.path, 0); err != nil {
			return fmt.Errorf("wal: compacting %s: %w", l.path, err)
		}
	} else {
		var err error
		if kept, err = l.rewriteRetained(seq); err != nil {
			return err
		}
	}
	l.committed = kept
	l.sinceSync = 0
	l.m.Compactions.Inc()
	l.m.DiskBytes.Set(kept)
	return nil
}

// rewriteRetained copies the frames with seq > through into a fresh file
// published over the log, then reopens the append handle, returning the
// retained byte count. Called with l.mu held. The committed prefix is
// valid by construction (Open validated it and every later frame was
// written whole under the mutex), so frames are copied raw after a bounds
// check plus seq filter.
func (l *Log) rewriteRetained(through uint64) (int64, error) {
	src, err := l.fs.Open(l.path)
	if err != nil {
		return 0, fmt.Errorf("wal: opening %s for compaction: %w", l.path, err)
	}
	defer src.Close()
	var kept int64
	err = faultfs.WriteFileAtomic(l.fs, l.path, filepath.Base(l.path)+".compact-*", func(w io.Writer) error {
		br := bufio.NewReaderSize(src, 1<<16)
		bw := bufio.NewWriterSize(w, 1<<16)
		frame := make([]byte, headerLen)
		for read := int64(0); read < l.committed; {
			if _, err := io.ReadFull(br, frame[:headerLen]); err != nil {
				return fmt.Errorf("wal: compaction read: %w", err)
			}
			length := binary.LittleEndian.Uint32(frame[0:4])
			if length < seqLen || length > maxPayload {
				return fmt.Errorf("wal: compaction found implausible frame length %d", length)
			}
			n := headerLen + int(length)
			frame = slices.Grow(frame[:headerLen], int(length))[:n]
			if _, err := io.ReadFull(br, frame[headerLen:]); err != nil {
				return fmt.Errorf("wal: compaction read: %w", err)
			}
			read += int64(n)
			if binary.LittleEndian.Uint64(frame[headerLen:]) <= through {
				continue
			}
			if _, err := bw.Write(frame); err != nil {
				return fmt.Errorf("wal: compaction write: %w", err)
			}
			kept += int64(n)
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, fmt.Errorf("wal: compacting %s: %w", l.path, err)
	}
	// The append handle still points at the replaced file; reopen the path.
	l.f.Close()
	f, err := l.fs.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.f = nil
		return 0, fmt.Errorf("wal: reopening %s after compaction: %w", l.path, err)
	}
	l.f = f
	return kept, nil
}

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
