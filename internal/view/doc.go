// Package view implements the paper's view model: a view is a triple
// (a, m, f) — dimension attribute, measure attribute, aggregate function —
// over a dataset, rendered as a histogram/bar chart. The package
// enumerates the view space (Eq. 1), lays out consistent bins across the
// target subset DQ and reference dataset DR, executes group-by
// aggregation into histograms, and normalises histograms into probability
// distributions (Eq. 5).
//
// # Contracts
//
// Bit-identity (DESIGN.md §9): one scan path turns rows into statistics.
// BinIndexAll materialises a dimension's bin indexes with one columnar
// kernel, which ExtendBinIndexAll reuses for an appended suffix, and
// CollectStats accumulates every measure through such an index, over all
// rows or a gathered sample. Both are bit-identical to the per-row spec —
// BinOf, and the row-at-a-time reference scan kept in test code — same
// values, same ascending row order into every accumulator, one shared
// binning expression — enforced by randomised property tests.
//
// Shared reference side (DESIGN.md §7): the reference half of the
// offline pass — layouts fit to DR, DR's bin indexes and layout
// statistics — is owned by the reference table's version, one per layout
// shape (bin counts and equal-depth flag), and every NewGenerator over
// that version scans DR through it. It lives in the table's per-version
// memo (dataset.Table.Memo), so a mutation or an append gives the next
// generator a fresh side and the old one is freed with its version.
// ApplyAppend generators carry a private, delta-extended side instead.
// Results are bit-identical to unshared generators, and
// Generator.MemoryBytes never charges a shared side: it belongs to the
// table, like the table itself.
//
// Cancellation (DESIGN.md §10): WarmCtx under a cancelled context returns
// ctx.Err() without publishing a partial warm. The single-flight caches,
// the generator's own and the shared reference side's, hold only
// completed scans, so a retry under a live context, or any other
// generator over the same table, is bit-identical to an uninterrupted
// run. Cancellation granularity is one layout warm; the row loops inside
// the kernels stay branch-free.
package view
