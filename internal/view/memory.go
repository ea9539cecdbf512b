package view

// This file is the view layer's contribution to the per-session memory
// accounting behind the server's eviction budget (DESIGN.md §16). The
// numbers are estimates of the dominant allocations — flat stat banks,
// bin indexes, layout label tables — not a heap census; fixed struct
// overhead is covered by the session-level constant.

// readyEach calls fn for every completed, successful entry without
// blocking on in-flight computations — the non-blocking walk the memory
// accounting needs (a scan mid-flight is simply not counted yet).
func (c *lazyCache[K, V]) readyEach(fn func(V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				fn(e.val)
			}
		default:
		}
	}
}

// MemoryBytes estimates the resident heap bytes of the layout: labels,
// equal-depth edges, and the categorical group-key index.
func (l *BinLayout) MemoryBytes() int64 {
	b := int64(cap(l.Labels)) * 16
	for _, s := range l.Labels {
		b += int64(len(s))
	}
	b += int64(cap(l.edges)) * 8
	// Map buckets amortise to roughly 48 bytes per categorical entry on
	// top of the key string contents (already counted under Labels, which
	// mirror the keys).
	b += int64(len(l.index)) * 48
	return b
}

// MemoryBytes estimates the resident heap bytes of the flat accumulator
// banks (five float64 banks plus per-measure shifts).
func (s *Stats) MemoryBytes() int64 {
	return int64(len(s.Counts))*5*8 + int64(len(s.Shifts))*8
}

// memoryBytes estimates the resident heap bytes of one side's filled
// scan caches: full and focused stats plus per-dimension bin-index bundles.
func (sc *scans) memoryBytes() int64 {
	var b int64
	addStats := func(s *Stats) { b += s.MemoryBytes() }
	sc.stats.readyEach(addStats)
	sc.focused.readyEach(addStats)
	sc.bins.readyEach(func(bundle [][]int32) {
		for _, idx := range bundle {
			b += int64(cap(idx)) * 4
		}
	})
	return b
}

// MemoryBytes estimates the resident heap bytes of the generator's own
// state: the target side's scan caches, plus — only for a generator whose
// reference side is private (ApplyAppend's) — that side's layouts and
// caches. A shared reference side belongs to the table version, like the
// reference table itself, so no generator is charged for it: a session's
// charge must not depend on what other sessions over the same table have
// already warmed. The target table is excluded too — it is accounted by the
// session owner. The estimate grows as the lazy caches fill, so
// accounting after a feedback round sees the scans that round
// materialised. Safe for concurrent use with scans; an in-flight scan is
// counted once it completes.
func (g *Generator) MemoryBytes() int64 {
	b := g.tgt.memoryBytes()
	if !g.sharedRef {
		for _, l := range g.ref.layouts {
			b += l.MemoryBytes()
		}
		b += g.ref.scans.memoryBytes()
	}
	return b
}
