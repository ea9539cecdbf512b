// Package server exposes ViewSeeker over HTTP: a small JSON API plus an
// embedded single-page UI, turning the library into the interactive tool
// the paper describes — the analyst sees one view at a time as an SVG
// chart, rates it, and watches the top-k recommendations sharpen.
//
// # Contracts
//
// Cancellation (DESIGN.md §10): handlers thread r.Context() into the
// facade, so a disconnected client or an expired -request-timeout cancels
// the offline phase within one work item; context.Canceled and
// DeadlineExceeded map to 503 (retryable), other errors to 4xx/5xx by
// kind. A recovery middleware turns handler panics into logged stacks
// plus a 500, re-raising http.ErrAbortHandler.
//
// Degraded mode (DESIGN.md §§8, 10): journal and cache-snapshot failures
// never fail user requests — the server keeps serving and reports lost
// durability via GET /healthz (always 200; status "ok"|"degraded" per
// component) and the degraded field on session-info and feedback bodies.
//
// Replay: every session lifecycle event is journalled, and replay
// rebuilds a session deterministically from its log (create + feedback),
// so the restored estimator, top-k and weights are exact.
// RestoreSessions is lazy: it indexes journaled sessions cold and each
// rehydrates on first touch rather than at boot. A live-table create
// record carries the seq of the version the session saw; restore skips
// and reports a session whose table has moved on.
//
// Session lifecycle (DESIGN.md §16): sessions live in a memory-budgeted
// manager (internal/session, Options.SessionBudgetBytes). Over budget,
// idle sessions are LRU-evicted down to their journal mirror and
// rehydrated bit-identically on next touch — every session, since its
// rehydration closure names the exact offline version it overlays. Under
// hard overload — accounted bytes past budget × 1.5 or the rehydration
// backlog full — creates and cold-session rehydrations are shed with
// 429 + Retry-After. GET /healthz reports the manager state
// (accepting/evicting/shedding), resident/cold counts and resident
// bytes; /metricz carries the eviction, rehydration and shed counters.
//
// Observability (DESIGN.md §11): every route runs under the
// instrumentation middleware — request ids (X-Request-Id, generated or
// honoured, threaded through the context into structured slog access
// logs), per-route latency histograms, status-labelled request counters
// and an in-flight gauge — and the request context carries the server's
// obs registry and tracer, which is what lights up the offline, store and
// active-loop metrics below. GET /metricz serves the registry in
// Prometheus text format; GET /debug/vars serves the same data as JSON
// plus the tracer's recent phase traces.
package server
