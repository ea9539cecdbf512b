// Package live turns the immutable dataset.Table into a durable,
// versioned, appendable one: a base snapshot plus a redo-log WAL
// (internal/wal) of append batches, published as a chain of immutable
// table versions (dataset.Table.WithAppended). Each version shares its
// parent's column arrays and writes only its batch into their tails; a
// version claims a tail with a CAS on the array's high-water mark, and a
// version that loses the claim (a fork) copies (DESIGN.md §13). The
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
//     (one WAL record, one WithAppended step). Append builds the version
//     before the WAL write; when the write fails the version is dropped
//     with its tail claim stranded, and the next append copies once.
//   - MVCC reads: Current returns an immutable version; concurrent
//     appends publish new versions and never mutate published ones, so
//     sessions and scans are race-free without coordination.
//   - O(1) version identity: VersionRef = base content hash + WAL
//     sequence number (store.VersionedRef). The offline cache addresses
//     entries by it, so appends mint new addresses instead of forcing
//     whole-table re-hashing, and ancestor versions' entries survive.
//   - Bounded recovery: Checkpoint persists the rows appended since the
//     previous checkpoint as one typed column segment (segment.go, built
//     on dataset.AppendSegment), a frame of a second frame log beside the
//     WAL (path + ".seg"), then compacts the WAL through the seq the
//     segment covers. Open recovers the base, then the segments (which
//     extend the base's own column storage, dataset.Table.WithSegment),
//     then the WAL tail, so restart reads each appended row once however
//     long the table has lived. Segments never merge: together they are
//     exactly the appended rows. Each records the ORIGINAL base hash —
//     VersionRef stays baseHash@seq, monotone across checkpoints. The WAL
//     is synced before a segment is written and compacted only after it
//     is synced, so a crash in any window (segment torn: dropped, the WAL
//     replays its batches; segment synced, WAL not compacted: duplicate
//     frames skipped by sequence; WAL compacted) recovers bit-identically.
//     A torn segment the WAL no longer covers, or a segment that does not
//     decode, names another base, or leaves a gap, is a hard Open error,
//     because dropping it would lose rows. A format-1 whole-table
//     checkpoint (path + ".ckpt") is migrated to one segment on first
//     Open (migrate.go). Checkpoints are single-flight, manual
//     (Checkpoint) or automatic past Options.CheckpointBytes of WAL
//     growth, and Close waits out the one in flight.
//
// Observability follows the DESIGN.md §11 schema: appended-rows counter,
// last-sequence gauge, checkpoint counters, bytes and duration histogram,
// the checkpoint-age and WAL-size gauges, a live.checkpoint span per
// checkpoint, plus the viewseeker_wal_* append, fsync and recovery
// series it wires into its frame log. Status snapshots the same numbers
// for /healthz.
package live
