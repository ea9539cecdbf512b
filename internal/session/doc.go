// Package session implements the memory-budgeted session lifecycle
// behind the HTTP server (DESIGN.md §16): each interactive session is
// registered with an accounted byte estimate and a rehydration closure,
// the coldest idle sessions are evicted once the accounted total exceeds
// the -session-budget-bytes budget, and an evicted session is rebuilt
// transparently on its next touch by replaying its journalled create and
// feedback records — bit-identical to the unevicted session by the
// determinism contract (DESIGN.md §8). Every session is evictable: its
// rehydration closure names the exact offline version it overlays (a
// cache entry, or the maintained live-table version it was minted from),
// so rehydration is a fresh overlay plus label replay. When eviction
// cannot keep up (every resident session is mid-request and the total
// still exceeds budget × (1 + headroom)), or the rehydration backlog is
// full, the manager refuses new work with *Overload, which the server
// maps to 429 + Retry-After.
package session
