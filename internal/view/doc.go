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
// Bit-identity (DESIGN.md §9): the columnar scan kernels
// (CollectStatsIndexed, CollectStatsSampled) produce bit-identical
// statistics to the retained row-at-a-time oracle CollectStatsReference —
// same values, same ascending row order into every accumulator, one
// shared binning expression — enforced by randomised property tests.
//
// Cancellation (DESIGN.md §10): WarmCtx under a cancelled context returns
// ctx.Err() without publishing a partial warm — the generator's
// single-flight caches hold only completed scans, so a retry under a live
// context is bit-identical to an uninterrupted run. Cancellation
// granularity is one layout warm; the row loops inside the kernels stay
// branch-free.
package view
