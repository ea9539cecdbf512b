// Package sim implements the paper's simulated user study (Section 4):
// the eleven ideal utility functions of Table 2, a simulated user that
// labels views with their normalised ideal utility, the evaluation
// measures (top-k precision and utility distance, Eq. 8), and a session
// runner that drives a session (core.Seeker, or the public facade through
// internal/exp's adapter) until a stop criterion is met.
//
// # Contracts
//
// Determinism: ideal utilities are pure functions of the view pair, and
// the label-noise extension (NoisyUser) draws from a seeded source, so a
// session transcript is a deterministic function of (testbed,
// configuration, seed) — the property that makes the reproduced figures
// stable across runs and machines.
package sim
