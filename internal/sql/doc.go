// Package sql implements the query substrate ViewSeeker runs on: a
// lexer, parser and executor for an analytic subset of SQL — SELECT with
// expressions, WHERE, GROUP BY, HAVING, ORDER BY, LIMIT, the aggregate
// functions COUNT/SUM/AVG/MIN/MAX/VARIANCE/STDDEV and a few scalar
// functions (including WIDTH_BUCKET, which the view layer uses to bin
// numeric dimensions). Queries execute against dataset.Table values
// registered in a Catalog and return results as new dataset.Table values.
//
// # Two executors, one semantics
//
// Execute lowers the parsed statement into a physical plan (Lower, in
// plan.go) and runs the planned executor (plan_exec.go): a selection
// vector over the scan, then either a projection or one fused aggregation
// pass that accumulates every aggregate slot of the statement into flat
// per-slot accumulator banks, reading plain numeric columns through
// dataset.Column.NumericView instead of boxed per-row evaluation. A WHERE
// predicate over columns and constants that cannot fail at run time
// compiles to typed kernels over the unboxed columns (kernel.go), with
// NOT pushed to the leaves; any other predicate runs boxed as a whole. A
// projection of bare columns without DISTINCT or ORDER BY is gathered
// column by column (dataset.Column.Gather).
// ExecuteInterpreted is the retained tree-walking interpreter — the
// bit-identity oracle the planned executor is tested against (the same
// retained-reference pattern as view.CollectStatsReference). Both engines
// feed the identical aggAccumulator operation sequence per (group, value)
// in row order, so their results match bit-for-bit, floats included.
//
// EXPLAIN (via Catalog.Query) returns the lowered plan as one JSON
// document — a one-row, one-column "plan" table — whose schema is
// versioned by PlanVersion and pinned by a golden-file test.
//
// # Contracts
//
// Determinism: execution is single-threaded and ordering is defined —
// ungrouped rows keep table order, GROUP BY groups emit in first-seen
// order, ORDER BY sorts stably — so the same query over the same table
// always yields the same result table. Session fingerprints hash query
// results, so this determinism is load-bearing for the offline cache.
//
// Numeric contracts: SUM over all-integer inputs is exact (int64
// accumulation; overflow is an error, not a wrap), and VARIANCE/STDDEV
// use moments shifted by the group's first value, so they survive
// |mean| ≫ stddev inputs that a raw Σv² formulation loses to float64
// cancellation.
//
// Result kinds: a column passed through unchanged (* or a bare column
// reference) keeps its source column's kind and role, even when every
// selected cell is NULL or no row is selected; a computed column takes
// the kind of its first non-NULL value, string when it has none.
//
// Queries never mutate their input tables; every result is a fresh table.
package sql
