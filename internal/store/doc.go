// Package store persists the two kinds of server-side state the
// interactive phases sit on: the offline phase's output (view layouts
// plus the utility-feature matrix), kept in a content-addressed cache so
// a second session over the same (table, query, configuration) skips the
// offline pass entirely, and the interactive sessions themselves, kept as
// an append-only journal of labelling events whose deterministic replay
// reconstructs every estimator after a restart.
//
// # Contracts
//
// Content addressing: cache entries are immutable once stored and are
// invalidated purely by addressing — any input change produces a
// different fingerprint — so there is no invalidation API to misuse.
//
// Shared versions: an entry (OfflineResult) is handed out by reference,
// never cloned, with the state its sessions share — the target subset,
// decoded once at disk load, and one view generator, held weakly unless
// owned. Sessions overlay it copy-on-write (feature.Rebuild), so none can
// leak refinements into the cache or another session. Snapshots hold only
// the exported fields, byte-for-byte as before (snapshotVersion 1).
//
// Degraded mode (DESIGN.md §10): journal appends and cache snapshot
// writes run under retry.Policy; when retries exhaust, the write is
// dropped, the component marks itself Degraded, and the caller's request
// still succeeds — losing durability must never lose the interaction.
// The flag is write-path only and the next successful write clears it, so
// recovery is automatic when the fault lifts.
//
// Torn-line safety: journal appends are single write calls; a partial
// write sets a flag that makes the next append terminate the torn
// fragment with a newline, and replay skips lines that fail to parse —
// one torn write costs exactly one record, never its neighbours.
//
// Replay exactness: a session's create record plus its feedback records,
// replayed in order, reconstruct its estimator bit-identically — the
// pipeline is deterministic and the estimators are pure functions of the
// labelled sequence. The memory-budgeted session manager (DESIGN.md §16)
// leans on this: an evicted session keeps only its journal mirror and is
// rebuilt exactly on next touch, with the cache making the rebuild warm.
//
// Observability: Instrument(reg) on Cache and Journal registers
// hit/miss/eviction, snapshot and append latency/bytes, degraded-state
// and retry metrics (DESIGN.md §11); an uninstrumented component pays
// only nil checks.
package store
