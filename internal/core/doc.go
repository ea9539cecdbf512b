// Package core implements the ViewSeeker session loop of Algorithm 1: the
// cold-start and uncertainty-sampling stages, the linear-regression view
// utility estimator, top-k recommendation, and the hook into the
// incremental feature refinement optimisation.
//
// # Contracts
//
// Determinism: selection and refitting are deterministic functions of
// (configuration, labelling history) — the property that lets the journal
// replay of internal/store reconstruct a session's estimator exactly.
//
// Cancellation (DESIGN.md §10): FeedbackCtx with a context that is dead
// on entry records nothing and returns the context's error; cancellation
// observed mid-call aborts only the optional incremental refinement (it
// is latency-hiding work, equivalent to an exhausted budget) — the label
// recording and estimator refit still complete, so a caller never sees a
// half-applied label and in-memory state never diverges from the journal.
// NextCtx, which selects the one view an iteration presents, is pure
// in-memory ranking and does not block, so its context carries only
// instrumentation.
//
// Observability: NextCtx and FeedbackCtx record per-iteration
// selection, refit and label metrics plus "select"/"feedback" spans
// against the context's obs registry; without one they are bit-identical
// to the plain Next/Feedback paths.
package core
