// Package metric implements the utility components ViewSeeker composes
// into view utility features: the five deviation distances between a
// target-view and a reference-view probability distribution (KL
// divergence, Earth Mover's Distance, L1, L2, maximum per-bin deviation),
// the Usability and Accuracy quality measures of MuVE, and the χ²-based
// p-value of top-k-insights. All functions are pure and operate on
// normalised distributions represented as []float64.
//
// # Contracts
//
// Purity and determinism: no state, no randomness, inputs never mutated —
// the feature matrix built on these functions is a deterministic function
// of its inputs, which content-addressed caching depends on. Distances
// are defined for equal-length distributions and guard the usual edge
// cases (zero bins in KL via smoothing, empty distributions) by returning
// finite values rather than NaN/Inf, so one degenerate view can never
// poison a whole feature column.
//
// Block kernels: DeviationsAll computes all five deviation distances in
// one pass over a pair, and NormalizeInto / PValueScoreN are the
// buffer-reusing forms the layout-block feature path is built on. Each
// replicates the exact floating-point operation sequence of its scalar
// counterpart, so batched values are bit-identical to per-call values —
// the per-pair functions remain the oracle, enforced by property tests.
// The scalar KL, EMD, L2 and MaxDiff live only in that oracle
// (oracle_test.go); production reaches them through DeviationsAll.
package metric
