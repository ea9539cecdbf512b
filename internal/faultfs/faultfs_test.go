package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

var errNoSpace = syscall.ENOSPC

func tempFile(t *testing.T, fs FS) File {
	t.Helper()
	f, err := fs.OpenFile(filepath.Join(t.TempDir(), "f"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestOSPassthroughRoundTrip(t *testing.T) {
	fs := OS{}
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	moved := filepath.Join(dir, "b.txt")
	if err := fs.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(moved)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read %q, %v", got, err)
	}
	if err := fs.Remove(moved); err != nil {
		t.Fatal(err)
	}
}

func TestFaultyPersistentWriteFailure(t *testing.T) {
	fs := NewFaulty(OS{})
	f := tempFile(t, fs)
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	fs.FailWrites(errNoSpace)
	if _, err := f.Write([]byte("x")); !errors.Is(err, errNoSpace) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if err := f.Sync(); !errors.Is(err, errNoSpace) {
		t.Fatalf("sync err = %v, want ENOSPC", err)
	}
	fs.Clear()
	if _, err := f.Write([]byte("y")); err != nil {
		t.Fatalf("write after Clear: %v", err)
	}
	writes, failures := fs.Counts()
	if writes != 3 || failures != 1 {
		t.Errorf("counts = %d writes, %d failures", writes, failures)
	}
	got, _ := os.ReadFile(f.Name())
	if string(got) != "oky" {
		t.Errorf("file = %q, want %q (failed write persisted nothing)", got, "oky")
	}
}

func TestFaultyTransientFailures(t *testing.T) {
	fs := NewFaulty(OS{})
	f := tempFile(t, fs)
	fs.FailNextWrites(2, errNoSpace)
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("x")); !errors.Is(err, errNoSpace) {
			t.Fatalf("write %d err = %v, want ENOSPC", i, err)
		}
	}
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatalf("third write should succeed: %v", err)
	}
	got, _ := os.ReadFile(f.Name())
	if string(got) != "z" {
		t.Errorf("file = %q, want %q", got, "z")
	}
}

func TestFaultyTornWritesPersistPrefix(t *testing.T) {
	fs := NewFaulty(OS{})
	f := tempFile(t, fs)
	fs.TearWritesAfter(3, errNoSpace)
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, errNoSpace) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want 3 bytes persisted", n)
	}
	fs.Clear()
	if _, err := f.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(f.Name())
	if string(got) != "abc!" {
		t.Errorf("file = %q, want %q (torn prefix on disk)", got, "abc!")
	}
}

func TestFaultyTearLongerThanBuffer(t *testing.T) {
	fs := NewFaulty(OS{})
	f := tempFile(t, fs)
	fs.TearWritesAfter(100, errNoSpace)
	n, err := f.Write([]byte("ab"))
	if !errors.Is(err, errNoSpace) || n != 2 {
		t.Fatalf("n, err = %d, %v", n, err)
	}
}

func TestFaultyMetadataOpsPassThrough(t *testing.T) {
	fs := NewFaulty(OS{})
	fs.FailWrites(errNoSpace)
	dir := t.TempDir()
	if err := fs.MkdirAll(filepath.Join(dir, "a/b"), 0o755); err != nil {
		t.Fatalf("MkdirAll under write fault: %v", err)
	}
	f, err := fs.CreateTemp(dir, "tmp-*")
	if err != nil {
		t.Fatalf("CreateTemp under write fault: %v", err)
	}
	f.Close()
	if err := fs.Rename(f.Name(), filepath.Join(dir, "done")); err != nil {
		t.Fatalf("Rename under write fault: %v", err)
	}
}

// renameFailFS fails every Rename, the last step of an atomic publish.
type renameFailFS struct{ FS }

func (renameFailFS) Rename(string, string) error { return errors.New("injected rename failure") }

// TestWriteFileAtomic: a publish either replaces the file whole or leaves
// it untouched, and a failure at any step (write, sync, rename) removes
// the temp file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	if err := WriteFileAtomic(OS{}, path, "snap.tmp-*", write("v1")); err != nil {
		t.Fatal(err)
	}
	faulty := NewFaulty(nil)
	faulty.FailNextWrites(1, errNoSpace)
	if err := WriteFileAtomic(faulty, path, "snap.tmp-*", write("v2")); !errors.Is(err, errNoSpace) {
		t.Fatalf("failed write: err = %v", err)
	}
	faulty.FailWrites(errNoSpace) // Sync fails too
	if err := WriteFileAtomic(faulty, path, "snap.tmp-*", func(io.Writer) error { return nil }); !errors.Is(err, errNoSpace) {
		t.Fatalf("failed sync: err = %v", err)
	}
	if err := WriteFileAtomic(renameFailFS{OS{}}, path, "snap.tmp-*", write("v3")); err == nil {
		t.Fatal("failed rename reported success")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "v1" {
		t.Fatalf("after failed publishes the file holds %q, %v; want v1", got, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed publishes left %d files behind", len(entries)-1)
	}
}
