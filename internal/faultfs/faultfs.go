package faultfs

import (
	"io"
	"os"
	"path/filepath"
	"sync"
)

// File is the subset of *os.File the store layer needs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Name() string
	Sync() error
}

// FS is the filesystem surface behind journals and cache snapshots.
type FS interface {
	// OpenFile opens with os.OpenFile semantics (append-mode journals).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens for reading.
	Open(name string) (File, error)
	// CreateTemp creates a temp file with os.CreateTemp semantics.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically publishes a finished temp file.
	Rename(oldpath, newpath string) error
	// Remove deletes (snapshot quarantine, temp cleanup).
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// Truncate cuts the named file to size bytes (WAL torn-tail repair).
	// An open append-mode handle keeps working: its next write lands at
	// the new end.
	Truncate(name string, size int64) error
}

// OS is the passthrough FS backed by package os.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (OS) Open(name string) (File, error)               { return os.Open(name) }
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// WriteFileAtomic publishes a file at path atomically: write fills a temp
// file that fs.CreateTemp makes in path's directory under pattern, which is
// then synced, closed and renamed over path. Readers see the old file or
// the complete new one, never a partial write, and the new contents are
// on stable storage before the rename makes them visible. On any failure
// the temp file is removed and path is left as it was.
func WriteFileAtomic(fs FS, path, pattern string, write func(io.Writer) error) (err error) {
	tmp, err := fs.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fs.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return fs.Rename(tmp.Name(), path)
}

// Faulty wraps an FS and injects write-path faults on the files it opens.
// Faults apply to Write and Sync calls (where real disks surface ENOSPC
// and I/O errors); the metadata operations pass through untouched. All
// configuration methods are safe to call concurrently with in-flight I/O,
// so a test can lift a fault while a server is mid-retry.
//
// Three modes, checked in order on every write:
//   - persistent failure (FailWrites): every write fails until Clear;
//   - transient failure (FailNextWrites): the next n writes fail, then
//     writes succeed again;
//   - torn writes (TearWritesAfter): each write persists only the first
//     n bytes of its buffer, then reports the injected error — the
//     partial data really reaches the underlying file, exactly like a
//     crash or disk-full mid-write.
type Faulty struct {
	inner FS

	mu        sync.Mutex
	writeErr  error // persistent: every write fails with this
	nextErr   error // transient: the next nextN writes fail with this
	nextN     int
	tearAfter int // torn: persist this many bytes then fail (active when tearErr != nil)
	tearErr   error
	writes    int // total Write calls observed
	failures  int // total injected failures
}

// NewFaulty wraps inner (nil selects OS).
func NewFaulty(inner FS) *Faulty {
	if inner == nil {
		inner = OS{}
	}
	return &Faulty{inner: inner}
}

// FailWrites makes every subsequent write (and sync) fail with err until
// Clear. A nil err clears the persistent fault.
func (f *Faulty) FailWrites(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr = err
}

// FailNextWrites makes exactly the next n writes fail with err; writes
// after them succeed again — a transient fault.
func (f *Faulty) FailNextWrites(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextN = n
	f.nextErr = err
}

// TearWritesAfter makes every subsequent write persist only the first n
// bytes of its buffer and then fail with err, until Clear.
func (f *Faulty) TearWritesAfter(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearAfter = n
	f.tearErr = err
}

// Clear lifts every injected fault.
func (f *Faulty) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeErr, f.nextErr, f.tearErr = nil, nil, nil
	f.nextN, f.tearAfter = 0, 0
}

// Counts reports how many writes were attempted and how many of them had
// a fault injected.
func (f *Faulty) Counts() (writes, failures int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.failures
}

// decide consumes one write slot: it returns the injected error (nil =
// healthy) and, for torn writes, how many bytes to persist first (-1 = all
// or none, per the error).
func (f *Faulty) decide() (tear int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	switch {
	case f.writeErr != nil:
		f.failures++
		return -1, f.writeErr
	case f.nextN > 0:
		f.nextN--
		f.failures++
		return -1, f.nextErr
	case f.tearErr != nil:
		f.failures++
		return f.tearAfter, f.tearErr
	}
	return -1, nil
}

// syncErr reports the persistent fault for Sync calls (transient and torn
// faults are write-shaped and do not fire on sync).
func (f *Faulty) syncErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeErr
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: file, fs: f}, nil
}

func (f *Faulty) Open(name string) (File, error) { return f.inner.Open(name) }

func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: file, fs: f}, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f *Faulty) Remove(name string) error             { return f.inner.Remove(name) }
func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}
func (f *Faulty) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// faultyFile consults its FS's fault configuration on every write.
type faultyFile struct {
	File
	fs *Faulty
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	tear, err := ff.fs.decide()
	if err == nil {
		return ff.File.Write(p)
	}
	if tear >= 0 {
		if tear > len(p) {
			tear = len(p)
		}
		n, werr := ff.File.Write(p[:tear])
		if werr != nil {
			return n, werr
		}
		return n, err
	}
	return 0, err
}

func (ff *faultyFile) Sync() error {
	if err := ff.fs.syncErr(); err != nil {
		return err
	}
	return ff.File.Sync()
}
