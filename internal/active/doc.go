// Package active implements the query strategies of ViewSeeker's
// interactive phase: which unlabelled view to present to the user next.
// Every Strategy returns one view per call (the paper presents one view
// per iteration), or none once every view is labelled. The paper's
// choice is least-confidence uncertainty sampling [14] seeded by a
// per-feature cold-start stage; random sampling, query-by-committee and
// density-weighted selection are provided as baselines/extensions.
//
// # Contracts
//
// Determinism: every Strategy is a deterministic function of (rows,
// scaler, labeled) and its own seed — Random (and ColdStart's random
// fallback, which is a Random) draws from a seeded source, and
// score-based strategies break ties by ascending view index and never
// let a NaN score beat a number — so a replayed session selects the same
// views in the same order. The journal replay in internal/store depends
// on this.
//
// Purity: Select never mutates rows, the scaler or labeled; strategies may
// keep private memoised state (cold-start cursor, density cache) but that
// state is itself a pure function of the inputs seen so far. The density
// cache is keyed on the session's whole-space scaler, which the session
// replaces exactly when refinement rewrites rows, so densities always
// describe the rows they are applied to.
package active
