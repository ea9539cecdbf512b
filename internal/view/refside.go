package view

import (
	"fmt"
	"sort"

	"viewseeker/internal/dataset"
)

// scans is one table's lazily filled scan caches under a set of bin
// layouts. A generator has two: its reference side's and its target's.
type scans struct {
	stats lazyCache[layoutKey, *Stats] // full-data, all measures
	// Focused (single-measure) full-data stats, used by incremental
	// refresh so that upgrading one view costs one narrow scan instead of
	// an all-measures layout scan.
	focused lazyCache[measureKey, *Stats]
	// Lazily built dictionary-encoded dimension columns (row → bin),
	// keyed by dimension: one single-flight entry materialises the bin
	// indexes of every bin configuration of that dimension in one shared
	// pass (BinIndexAll), so warm-up, focused refresh and the SQL offline
	// path never re-read a dimension column per configuration.
	bins lazyCache[string, binBundle]
}

// binBundle is one dimension's bin indexes, one per layout in dimLayouts
// order, with the Backing each index lives on (nil entries, or a nil
// slice, for indexes built from scratch), so a delta-extended generator
// writes only the appended rows (extendBinIndexAll).
type binBundle struct {
	idx   [][]int32
	backs []*dataset.Backing[int32]
}

// refSide is the reference half of the offline pass: the bin layouts fit
// to DR and DR's scan caches under them. DR is the whole hosted table, so
// this half is the same for every exploration query over one table
// version. A table version therefore owns one refSide per layout shape
// (sharedRefSide), and every generator built over that version scans DR
// through it. On a live table a version's side is usually its parent's
// delta-extended (Generator.ApplyAppend), which is content-identical to a
// fresh fit.
type refSide struct {
	cfg     SpaceConfig
	layouts map[layoutKey]*BinLayout // immutable once built
	// dimLayouts orders each dimension's layout keys (ascending bin
	// count); its index positions address the per-dimension bin-index
	// bundles. Immutable once built.
	dimLayouts map[string][]layoutKey
	// err is the layout fit's failure, if any; it is a function of the
	// table version, so a shared side keeps it like a result.
	err error
	scans
}

// refSideKey addresses a table's shared reference sides among its
// memoised values. Only the bin counts shape the layouts.
type refSideKey struct {
	binCounts string
}

func (c SpaceConfig) refSideKey() refSideKey {
	return refSideKey{binCounts: fmt.Sprint(c.binCounts())}
}

// sharedRefSide returns the reference side the table's current version
// owns for cfg's layout shape, fitting its layouts on first use. Its scan
// caches fill lazily as generators ask for them.
func sharedRefSide(ref *dataset.Table, cfg SpaceConfig) *refSide {
	return ref.Memo(cfg.refSideKey(), func() any { return newRefSide(ref, cfg) }).(*refSide)
}

// newRefSide fits every layout of cfg's space to ref: one per categorical
// dimension, one per (numeric dimension, bin count).
func newRefSide(ref *dataset.Table, cfg SpaceConfig) *refSide {
	rs := &refSide{cfg: cfg, layouts: make(map[layoutKey]*BinLayout), dimLayouts: make(map[string][]layoutKey)}
	for _, d := range ref.Schema.Dimensions() {
		for _, bins := range cfg.binConfigs(ref, d) {
			k := layoutKey{d, bins}
			if _, ok := rs.layouts[k]; ok {
				continue
			}
			l, err := computeLayout(ref, d, bins)
			if err != nil {
				rs.err = err
				return rs
			}
			rs.layouts[k] = l
			rs.dimLayouts[d] = append(rs.dimLayouts[d], k)
		}
	}
	for _, ks := range rs.dimLayouts {
		sort.Slice(ks, func(i, j int) bool { return ks[i].bins < ks[j].bins })
	}
	return rs
}
