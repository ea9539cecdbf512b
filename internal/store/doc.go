// Package store persists the two kinds of server-side state the
// interactive phases sit on: the offline phase's output (the view space,
// the utility-feature matrix and the target subset), kept in a cache
// addressed by (reference contents, query text, configuration) so a
// second session over the same inputs skips the query and the offline
// pass entirely, and the interactive sessions themselves, kept as
// an append-only journal of labelling events whose deterministic replay
// reconstructs every estimator after a restart.
//
// # Contracts
//
// Addressing: cache entries are immutable once stored and are
// invalidated purely by addressing — any input change produces a
// different fingerprint (Key) — so there is no invalidation API to
// misuse. There is one address per entry: textually different queries
// selecting the same rows do not share one.
//
// Shared versions: an entry (OfflineResult) is handed out by reference,
// never cloned, with the state its sessions share — the target subset,
// which every entry carries and which is decoded once at disk load, and
// one view generator, held weakly unless owned. Sessions overlay it
// copy-on-write (feature.Rebuild), so none can leak refinements into the
// cache or another session. Snapshots hold only the exported fields,
// byte-for-byte as before (snapshotVersion 1); a snapshot without a
// target is rejected like any other corrupt one.
//
// Degraded mode (DESIGN.md §10): journal appends and cache snapshot
// writes run under retry.Policy; when retries exhaust, the write is
// dropped, the component marks itself Degraded, and the caller's request
// still succeeds — losing durability must never lose the interaction.
// The flag is write-path only and the next successful write clears it, so
// recovery is automatic when the fault lifts.
//
// Torn-write safety: the journal is a JSON record codec over the WAL's
// frame log (internal/wal), one CRC-32C-checksummed, sequence-numbered
// frame per record. A torn write is resumed at its missing suffix or
// truncated away; if even the truncate fails the journal poisons itself
// and stays Degraded until reopened. OpenJournal truncates a torn or
// corrupted tail and reports it (Journal.Recovery), and ReadJournal
// returns exactly the committed prefix — a flipped byte fails its CRC, so
// it and everything after it are never replayed. A JSON-lines journal
// from an older version is refused by name, not truncated.
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
