// Package live turns the immutable dataset.Table into a durable,
// versioned, appendable one: a base snapshot plus a redo-log WAL
// (internal/wal) of append batches, published as a chain of immutable
// table versions via copy-on-append (dataset.Table.WithAppended). The
// WAL is a payload-agnostic frame log; the row-batch codec that fills
// its frames (batch.go) lives here, with its only user. A frame that
// passes its checksum but does not decode as a batch fails Open.
//
// Contracts:
//
//   - Durability before visibility: a batch is WAL-committed before the
//     new version is published, so any observable version is recoverable.
//     A crash mid-append loses at most the in-flight batch; recovery
//     (Open) replays the committed log over the base and lands exactly on
//     the last committed batch, with no partial rows — batches are atomic
//     (one WAL record, one copy-on-append step).
//   - MVCC reads: Current returns an immutable version; concurrent
//     appends publish new versions and never mutate published ones, so
//     sessions and scans are race-free without coordination.
//   - O(1) version identity: VersionRef = base content hash + WAL
//     sequence number (store.VersionedRef). The offline cache addresses
//     entries by it, so appends mint new addresses instead of forcing
//     whole-table re-hashing, and ancestor versions' entries survive.
//   - Bounded recovery: Checkpoint persists the current version as an
//     atomic snapshot (faultfs.WriteFileAtomic beside the WAL) and compacts
//     the log to the post-checkpoint suffix, so restart replay is
//     snapshot + suffix however long the table has lived. The snapshot
//     records the ORIGINAL base hash — VersionRef stays baseHash@seq,
//     monotone across checkpoints. A crash in either window (before the
//     rename: old state, full replay; after it, before the truncate:
//     snapshot wins, duplicate frames skipped by sequence) recovers
//     bit-identically; a corrupt or wrong-base snapshot is a hard Open
//     error, because the log behind it may already be compacted.
//     Checkpoints are single-flight, manual (Checkpoint) or automatic
//     past Options.CheckpointBytes of WAL growth.
//
// Observability follows the DESIGN.md §11 schema: appended-rows counter,
// last-sequence gauge, checkpoint counters and the checkpoint-age and
// WAL-size gauges, plus the viewseeker_wal_* append, fsync and recovery
// series it wires into its frame log. Status
// snapshots the same numbers for /healthz.
package live
