// Package wal is the durable-log primitive: an append-only frame log in
// which every payload is written as one length-prefixed,
// CRC-32C-checksummed frame under a monotone sequence number, so a crash
// can lose at most the frames inside the current fsync window and can
// never corrupt what came before. It knows nothing about its payloads.
// Two users share it: live tables (internal/live) log append batches
// through their row-batch codec, and the session journal (internal/store)
// logs JSON session records.
//
// # Frame format
//
// A frame is `u32 len | u32 crc32c(payload) | payload`, all little-endian,
// and a payload is `u64 seq | caller bytes`. The log writes the sequence
// number; callers see only their own bytes. Sequence numbers start at 1
// and increase by exactly 1 per committed frame.
//
// # Recovery contract
//
// Open scans the log front to back and hands each committed frame to the
// caller's replay function. It stops at the first frame that fails any
// check (length sanity, checksum, sequence chain) and truncates the file
// back to the last good boundary. That torn tail — the signature of a
// kill mid-write, or of a flipped bit — is discarded and reported in
// Recovery (TornTail, TornBytes: every byte past the committed prefix).
// An error from the replay function (a payload its codec cannot decode)
// aborts Open and leaves the file alone: such a frame was written whole,
// so it is not a torn tail. Scan is the same pass, read-only.
//
// # Compaction
//
// CompactThrough(seq) drops every frame at or below seq. The retained
// suffix is published with faultfs.WriteFileAtomic (temp file, fsync,
// rename); an up-to-date log is simply truncated to empty. A compacted log
// no longer starts at sequence 1, so it must be opened with
// Options.SkipThrough set to the compaction point — internal/live records
// it in its checkpoint snapshot. During recovery, frames at or below
// SkipThrough are validated but not replayed (Recovery.SkippedFrames);
// that makes recovery idempotent when a crash lands between "snapshot
// durable" and "log compacted", when snapshot and full log briefly
// coexist. Opening a compacted log without its SkipThrough is reported as
// a torn tail, never replayed against the wrong base.
//
// # Failure semantics
//
// Append writes the whole frame in one Write and retries torn writes by
// completing the missing suffix. If retries exhaust, the partial frame is
// truncated away and the append fails with the log intact; if even
// truncation fails, the log poisons itself and refuses further appends
// and compactions until reopened — an unrepaired tear must not be buried
// under new frames. Fsyncs batch per Options.SyncEvery and always happen
// on Sync and Close.
//
// Observability: Instrument attaches a Metrics set of counters, gauges and
// an fsync histogram. Each owner registers them under its own names —
// live tables as viewseeker_wal_*, the journal as
// viewseeker_store_journal_* — so journal frames never count as table WAL
// traffic; an uninstrumented log pays only nil checks.
package wal
