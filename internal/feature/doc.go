// Package feature turns view pairs into utility-feature vectors — the
// internal representation ViewSeeker trains on. Each feature is one
// "utility component" from the literature (Section 3.1 of the paper lists
// the eight the prototype ships); users may register custom components
// for personalised analysis. The offline pass has two entry points:
// ComputePartialWorkersCtx, behind every offline version the public
// facade builds (α = 1 is the exact pass), and ComputeWorkers, which
// reassembles a maintained query's rows over its delta-extended scans.
//
// # Contracts
//
// Cancellation (DESIGN.md §10): ComputePartialWorkersCtx under a
// cancelled context returns (nil, ctx.Err()) — never a partial matrix.
// Cancellation granularity is one layout block (all views sharing a
// (dimension, bins) layout); a retry under a live context is
// bit-identical to an uninterrupted run because the single-flight caches
// below only ever hold completed scans.
//
// Bit-identity: the matrix is a deterministic function of (table, query
// subset, view space, registry order, α-sample); worker count never
// changes a byte — rows are computed into disjoint slots. Every registry
// starts with StandardRegistry's eight (it is the only constructor, and
// Add only appends), so every matrix is filled layout-block-at-a-time
// through internal/metric's fused kernels (block.go); custom features
// past the eighth column ride the per-pair Feature interface over a pair
// assembled from the same statistics. The whole-row per-pair path —
// Registry.Vector over each view's Histogram pair, with the standard
// eight's per-pair closures — is kept in test code as the bit-identity
// oracle the block fill must match exactly. Rows from an
// α-sampled pass are flagged rough (Matrix.Exact[i] == false) and carry
// the contract that refinement may later replace them with the exact
// values (RefreshFamily, one aggregate family per narrow scan, pinned
// against a per-view oracle kept as test code); exact rows are final, and
// every refresh bumps Matrix.Version so row-derived caches can invalidate.
//
// Copy-on-write: a refresh installs freshly allocated rows in
// Matrix.Rows and never writes into an existing row. Rebuild copies only
// the outer row-header slice and the exactness flags, so any number of
// matrices — one per session — can overlay the same immutable rows of
// one offline version, each refining privately.
//
// Observability: computeMatrix records the warm and feature-pass phases
// as spans plus duration histograms against the context's obs registry;
// without one the pipeline is bit-identical to the uninstrumented path.
package feature
