// Package ml implements the two learners ViewSeeker needs, from scratch
// on top of internal/linalg: a ridge-regularised linear regression (the
// view utility estimator) and a logistic regression trained by gradient
// descent (the uncertainty estimator), plus the feature standardiser both
// share. Neither learner has settings: the ridge penalty and the
// gradient-descent schedule are package constants.
//
// # Contracts
//
// Determinism: training has no randomness — ridge regression solves the
// normal equations directly and logistic regression runs a fixed
// gradient-descent schedule from zero, or from the warm model the caller
// passes — so a fit is a function of its arguments, and refitting on the
// same labelling history reproduces the same weights bit for bit. Session
// replay (internal/store) and the selection-determinism tests rest on
// this.
//
// Incremental refits: SuffStats accumulates a ridge fit's sufficient
// statistics one labelled row at a time, and FitSufficient solves the
// centred normal equations from them with reused O(k²) workspaces — a
// per-label refit costs O(k²) arithmetic and at most one allocation
// instead of rebuilding the design. Incremental and from-scratch
// accumulation run the identical Add sequence, so they agree bit for
// bit; FitSufficient agrees with the design-matrix solve kept as a test
// oracle to solver tolerance (the algebra is rearranged).
//
// Fitting never mutates the caller's rows. Both learners take the scaler
// as an argument: the session layer fits it once over the full view space
// (not just labelled rows) per feature-matrix version, which keeps
// predictions stable over unlabelled views as labels accumulate.
// Predict, Prob and the *Into scaler forms standardise into reused or
// stack space with the same accumulation order as their allocating
// counterparts — zero allocations, bit-identical results.
package ml
