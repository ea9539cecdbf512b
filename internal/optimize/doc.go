// Package optimize implements the paper's Section 3.3 optimisations: the
// α-sample "rough" feature pass lives in internal/feature
// (ComputePartialWorkersCtx at α < 1); this package schedules the incremental refinement of
// rough feature rows against the full data, in utility-estimator rank
// order, under the per-iteration latency budget tl — hiding the expensive
// computation inside the user's labelling time.
//
// # Contracts
//
// Monotonicity: refinement only ever upgrades rows from rough to exact,
// in place; a refreshed row is final and is never recomputed. Rows that
// never reach the front of the priority queue are the "less promising"
// computations the optimisation prunes — their exact features are simply
// never computed.
//
// Cancellation (DESIGN.md §10): RefineCtx returns the number of rows
// refreshed so far together with ctx.Err(); refreshed rows stay exact and
// a later call resumes where it stopped. Callers treat cancellation as an
// exhausted budget, not a failure. Granularity is one layout-family scan:
// rows of a batch sharing a (dimension, bins, measure) family refresh
// together through Matrix.RefreshFamily, and with Workers = 1 every
// family is a single row — the sequential one-row contract is unchanged.
//
// Observability: RefineCtx records a "feedback.refine" span plus
// refreshed-row and latency metrics against the context's obs registry,
// and reports per-row progress through the OnRow hook; with neither
// installed the refinement loop is bit-identical to the bare path.
package optimize
