package dataset

import (
	"slices"
	"sync/atomic"
)

// Backing is one array that several versions of a growing sequence share
// — a live table's column, a bin index, a decode cache. Each version
// reads a prefix of the array; the cells past the longest prefix are the
// array's tail, which at most one version may claim. The high-water mark
// counts the cells some version has claimed, so a version of length n
// owns the tail exactly when the mark still reads n. Cells below the mark
// are never written again, which is what lets an older version keep
// reading its prefix while a newer one writes past it.
//
// A claim is never given back: a version that claims the tail and is
// then dropped (say, its WAL write failed) strands it, and the next
// extension of a shorter version copies once instead of sharing.
type Backing[T any] struct {
	buf  []T          // the whole array: len(buf) == cap(buf)
	mark atomic.Int64 // cells claimed by some version
}

// holds reports whether s is a non-empty prefix of b's array.
func (b *Backing[T]) holds(s []T) bool {
	return b != nil && len(s) > 0 && len(s) <= len(b.buf) && &b.buf[0] == &s[0]
}

// Extend returns s followed by k new cells, capacity-clamped to its new
// length, and the Backing the result lives on. The new cells are b's
// tail when b holds s, the array has room, and this caller wins the claim
// on it (the mark moves from len(s) to len(s)+k); otherwise s is copied
// into a fresh array, grown as append grows it, with a fresh mark. So a
// second extension of the same version — a fork — copies, and O(k) work
// is the rule, not the exception: the copy recurs only as often as
// append's geometric growth reallocates.
//
// The new cells hold unspecified values (a stranded claim may have
// written them): the caller must write every one before publishing the
// result. A nil b is valid and always copies.
func Extend[T any](s []T, b *Backing[T], k int) ([]T, *Backing[T]) {
	n := len(s)
	if k == 0 {
		return s[:n:n], b
	}
	if b.holds(s) && n+k <= len(b.buf) && b.mark.CompareAndSwap(int64(n), int64(n+k)) {
		return b.buf[: n+k : n+k], b
	}
	grown := slices.Grow(s[:n:n], k)
	fresh := &Backing[T]{buf: grown[:cap(grown)]}
	fresh.mark.Store(int64(n + k))
	return fresh.buf[: n+k : n+k], fresh
}

// Allocated returns the cells of s's allocation: the whole array when b
// holds s, else cap(s). Memory accounting charges this, not len(s), so a
// version is charged for the array it keeps alive.
func Allocated[T any](s []T, b *Backing[T]) int {
	if b.holds(s) {
		return len(b.buf)
	}
	return cap(s)
}
