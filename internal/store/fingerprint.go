package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"math/bits"
	"strconv"

	"viewseeker/internal/dataset"
)

// hashWriter wraps a hash with the length-prefixed primitives the
// fingerprint scheme is built from. Every variable-length field is
// preceded by its length so that adjacent fields can never alias
// ("ab"+"c" vs "a"+"bc"). Writes accumulate in a buffer so that hashing a
// million-row table costs large block updates, not one digest call per
// cell.
type hashWriter struct {
	h   hash.Hash
	buf []byte
}

const hashFlushAt = 1 << 15

func newHashWriter() *hashWriter {
	return &hashWriter{h: sha256.New(), buf: make([]byte, 0, hashFlushAt+64)}
}

func (w *hashWriter) flush() {
	if len(w.buf) > 0 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *hashWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	if len(w.buf) >= hashFlushAt {
		w.flush()
	}
}

func (w *hashWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *hashWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.flush()
	io.WriteString(w.h, s)
}

func (w *hashWriter) strs(ss []string) {
	w.u64(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *hashWriter) sum() string {
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}

// HashTable returns a hex content hash of a table: schema (column names,
// kinds, roles) plus every cell value including NULL positions. The table
// name is deliberately excluded — two identically shaped tables with equal
// contents enumerate the same view space and produce the same feature
// matrix, so they share cache entries. The hash is memoized on the table
// and invalidated by its version counter, so repeated lookups against an
// unchanged table hash once; the full pass over the typed column slices
// runs only after a mutation.
func HashTable(t *dataset.Table) string {
	return t.Memo(hashMemoKey{}, func() any { return hashTableContents(t) }).(string)
}

// hashMemoKey addresses the content hash among a table's memoised values.
type hashMemoKey struct{}

func hashTableContents(t *dataset.Table) string {
	w := newHashWriter()
	w.u64(uint64(t.NumRows()))
	w.u64(uint64(len(t.Cols)))
	for _, c := range t.Cols {
		w.str(c.Def.Name)
		w.u64(uint64(c.Def.Kind))
		w.u64(uint64(c.Def.Role))
		w.u64(uint64(len(c.Ints)))
		for _, v := range c.Ints {
			w.u64(uint64(v))
		}
		w.u64(uint64(len(c.Floats)))
		for _, v := range c.Floats {
			w.f64(v)
		}
		w.strs(c.Strs)
		w.u64(uint64(len(c.Bools)))
		for _, v := range c.Bools {
			if v {
				w.u64(1)
			} else {
				w.u64(0)
			}
		}
		// NULL positions distinguish a zero cell from a missing one. The
		// column's null bitmap is walked word-at-a-time — same byte stream
		// as hashing every row's IsNull (ascending indices), so existing
		// cache entries stay addressable, at a fraction of the cost.
		bm := c.NullBitmap()
		w.u64(uint64(c.NullCount()))
		for wi, word := range bm {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				w.u64(uint64(wi*64 + b))
				word &^= 1 << uint(b)
			}
		}
	}
	return w.sum()
}

// VersionedRef addresses one version of a live table: the base table's
// content hash plus the WAL sequence number of the last applied batch.
// It replaces whole-content re-hashing on the append path — the version
// chain hash@1, hash@2, … is monotone, so each append mints a new cache
// address in O(1) while every earlier version's entries survive as
// ancestors (a rolled-back or replayed table re-addresses them for free).
// Sequence 0 is the base itself and returns the hash unchanged, keeping
// pre-append cache entries reachable.
func VersionedRef(baseHash string, seq uint64) string {
	if seq == 0 {
		return baseHash
	}
	return baseHash + "@" + strconv.FormatUint(seq, 10)
}

// Key identifies one offline-phase computation: the inputs that fully
// determine the enumerated view space and its feature matrix. Every field
// participates in the fingerprint, so any change — one cell of the
// reference table, the query text, the sampling ratio, the feature set, a
// bin configuration — invalidates the cache entry by simply addressing a
// different one.
type Key struct {
	// RefHash is HashTable of the reference table DR (or a VersionedRef of
	// a live table's version).
	RefHash string
	// Query is the exploration query's text. Entries carry the target
	// subset it selected, so a warm session skips query execution too;
	// textually different queries selecting the same rows address
	// different entries.
	Query string
	// Alpha is the offline pass's sampling ratio, normalised so that every
	// exact configuration (alpha <= 0 or >= 1) shares one entry.
	Alpha float64
	// Features are the registry's feature names in registry order.
	Features []string
	// Aggs, BinCounts and EqualDepth are the view-space enumeration
	// parameters exactly as configured (nil and explicit defaults hash
	// differently only if the caller spells them differently; the public
	// facade always passes its resolved configuration).
	Aggs       []string
	BinCounts  []int
	EqualDepth bool
}

// fingerprintVersion is bumped whenever the fingerprint encoding or the
// meaning of any keyed field changes, orphaning all old entries. Version 2:
// the ACCURACY feature moved to shifted second moments, changing cached
// feature-matrix values for large-mean measures.
const fingerprintVersion = 2

// Fingerprint returns the hex cache address of the key.
func (k Key) Fingerprint() string {
	w := newHashWriter()
	w.u64(fingerprintVersion)
	w.str(k.RefHash)
	// The retired target-contents slot hashes as an empty string, keeping
	// every existing query-addressed fingerprint byte-identical.
	w.str("")
	w.str(k.Query)
	alpha := k.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 1
	}
	w.f64(alpha)
	w.strs(k.Features)
	w.strs(k.Aggs)
	w.u64(uint64(len(k.BinCounts)))
	for _, b := range k.BinCounts {
		w.u64(uint64(b))
	}
	if k.EqualDepth {
		w.u64(1)
	} else {
		w.u64(0)
	}
	return w.sum()
}
