package main

import (
	"sort"
	"time"

	"viewseeker/internal/sim"
)

// metric is one reported number with its unit and sample count (n is 0
// for a number that is not a statistic over samples). short marks a
// percentile with fewer than minBeyond samples beyond it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Short bool    `json:"short,omitempty"`
}

// pct reports the q-quantile of xs (in ms) as a metric.
func pct(xs []float64, q float64) metric {
	v, ok := percentile(xs, q)
	return metric{Value: v, Unit: "ms", N: len(xs), Short: !ok}
}

// slices is how many equal slices an open-loop window is cut into for
// the iteration percentiles: each is computed per slice and the median
// slice reported, so a host stall confined to one slice does not move the
// run's number. Creates are too few per slice for this.
const slices = 3

// sliced returns the q-quantile (ms) of the samples in each slice of the
// window, by due time, and reports the median slice. short is set when any
// slice lacks minBeyond samples beyond its percentile.
func sliced(lat []time.Duration, due []time.Time, win *windowResult, q float64) metric {
	per := make([][]float64, slices)
	for i, d := range lat {
		k := int(due[i].Sub(win.start) * slices / win.length)
		k = min(max(k, 0), slices-1)
		per[k] = append(per[k], ms(d))
	}
	m := metric{Unit: "ms", N: len(lat)}
	var vals []float64
	for _, p := range per {
		v, ok := percentile(p, q)
		m.Short = m.Short || !ok
		if len(p) > 0 {
			vals = append(vals, v)
		}
	}
	m.Value = median(vals)
	return m
}

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// windowNumbers is what one open-loop window (plus, for end-to-end runs,
// the saturation phase) measured from outside the server.
type windowNumbers struct {
	win     *windowResult
	reqs    []request // window requests
	cpu     time.Duration
	hwmKB   int64
	goodput float64 // 0 when no saturation phase ran
	satN    int
}

// userMetrics are the latencies, rates and costs a user of the server
// sees. The end-to-end set in BENCHMARK.json is drawn from these; the
// workload-specific ones (resume, append, freshness, precision) are also
// printed, and the per-layer set repeats them where a layer owns them.
func userMetrics(n *windowNumbers, boots []float64, in *inputs, fresh *freshness) map[string]metric {
	var creates, iters, resumes []float64
	var iterLat []time.Duration
	var iterDue []time.Time
	for _, s := range n.win.sessions {
		if s.user.kind == kindNew && s.createLat > 0 {
			creates = append(creates, ms(s.createLat))
		}
		if s.user.kind == kindReturning && s.resumeLat > 0 {
			resumes = append(resumes, ms(s.resumeLat))
		}
		iters = append(iters, durMs(s.iters)...)
		iterLat, iterDue = append(iterLat, s.iters...), append(iterDue, s.iterDue...)
	}
	var appends []float64
	for _, r := range n.reqs {
		if r.route == "append" && r.status == 200 {
			appends = append(appends, ms(r.done.Sub(r.due)))
		}
	}
	m := map[string]metric{
		"create_p50_ms":  pct(creates, 0.50),
		"iter_p50_ms":    sliced(iterLat, iterDue, n.win, 0.50),
		"iter_p99_ms":    pct(iters, 0.99),
		"resume_p90_ms":  pct(resumes, 0.90),
		"append_p50_ms":  pct(appends, 0.50),
		"append_p75_ms":  pct(appends, 0.75),
		"fresh_p75_ms":   pct(durMs(fresh.lat), 0.75),
		"peak_rss_mb":    {Value: float64(n.hwmKB) / 1024, Unit: "MB"},
		"topk_precision": precision(n.win.sessions, in),
	}
	if len(boots) > 0 {
		m["setup_s"] = metric{Value: median(boots), Unit: "s", N: len(boots)}
	}
	if n.goodput > 0 {
		m["goodput_sessions_per_s"] = metric{Value: n.goodput, Unit: "1/s", N: n.satN}
	}
	if k := len(n.win.sessions); k > 0 {
		m["cpu_ms_per_session"] = metric{Value: ms(n.cpu) / float64(k), Unit: "ms", N: k}
	}
	attempted, failed := countFailures(n.reqs)
	m["fail_frac"] = metric{Value: ratio(float64(failed), float64(attempted)), Unit: "ratio", N: attempted}
	return m
}

// precision is the mean precision@k of the sessions' final top-k against
// the ideal utility, over sessions whose query has a simulated ideal user.
func precision(ss []*sessionRun, in *inputs) metric {
	var ps []float64
	for _, s := range ss {
		u := in.ideal[s.query]
		if u == nil || !s.ok() || len(s.top.Top) == 0 {
			continue
		}
		idx := make([]int, len(s.top.Top))
		for i, v := range s.top.Top {
			idx[i] = v.Index
		}
		if p, err := sim.Precision(idx, u.Scores(), len(idx)); err == nil {
			ps = append(ps, p)
		}
	}
	return metric{Value: mean(ps), Unit: "ratio", N: len(ps)}
}

// countFailures counts attempted requests and those that failed: a 5xx, a
// transport error, or a 429 refusal (which abandons its session).
func countFailures(reqs []request) (attempted, failed int) {
	for _, r := range reqs {
		attempted++
		if r.status == 0 || r.status >= 500 || r.status == 429 {
			failed++
		}
	}
	return attempted, failed
}

// layerNumbers is the traced pass's view from inside: the access log
// joined by request ID, the /metricz deltas across the window, and the
// root spans of the -trace-log.
type layerNumbers struct {
	*windowNumbers
	log           *accessLog
	before, after map[string]float64 // /metricz around the window
	residentKB    []float64          // sampled kB per resident session
	spans         []*span
	workers       int
	fresh         *freshness
}

func (l *layerNumbers) delta(series string) float64 { return l.after[series] - l.before[series] }

// layerMetrics computes the per-layer metrics (see README.md for the
// table of which end-to-end metric each should move, and where).
func layerMetrics(l *layerNumbers, user map[string]metric) map[string]metric {
	m := make(map[string]metric)
	count := func(name string, v float64) { m[name] = metric{Value: v, Unit: "count"} }
	rat := func(name string, v float64) { m[name] = metric{Value: v, Unit: "ratio"} }
	msv := func(name string, v float64) { m[name] = metric{Value: v, Unit: "ms"} }

	// Client: is the load generator itself keeping its schedule?
	var lag, connWait, overhead []float64
	handler := make(map[string][]float64)
	var handlerIter float64
	creates := 0
	for _, r := range l.reqs {
		if r.status == 0 {
			continue
		}
		lag = append(lag, ms(r.sent.Sub(r.due)))
		connWait = append(connWait, ms(r.connWait))
		if r.route == "create" && r.status < 300 {
			creates++
		}
		e, ok := l.log.entry(r.id)
		if !ok {
			continue
		}
		overhead = append(overhead, ms(r.done.Sub(r.sent)-e.duration))
		handler[r.route] = append(handler[r.route], ms(e.duration))
		if r.route == "next" || r.route == "feedback" {
			handlerIter += ms(e.duration)
		}
	}
	m["client.sched_lag_p99_ms"] = pct(lag, 0.99)
	m["client.conn_wait_p99_ms"] = pct(connWait, 0.99)
	count("client.backlog_end", float64(l.win.backlogEnd))
	m["client.fail_frac"] = user["fail_frac"]

	// Network and the server's own handler time.
	m["net.overhead_p50_ms"] = pct(overhead, 0.50)
	for _, route := range []string{"create", "next", "feedback", "top", "append"} {
		m["server."+route+"_p50_ms"] = pct(handler[route], 0.50)
	}

	iterations := 0
	sessions, resumes := len(l.win.sessions), 0
	for _, s := range l.win.sessions {
		iterations += len(s.iters)
		if s.user.kind == kindReturning {
			resumes++
		}
	}
	spans := collectSpans(l.spans)
	rehydrateSum := l.delta("viewseeker_session_rehydration_seconds_sum") * 1000
	msv("server.self_ms_per_iter", ratio(handlerIter-spans.total("select")-spans.total("feedback")-rehydrateSum, float64(iterations)))

	// Session lifecycle.
	rat("session.evictions_per_session", ratio(l.delta("viewseeker_session_evictions_total"), float64(sessions)))
	rat("session.rehydrations_per_resume", l.delta("viewseeker_session_rehydrations_total")/float64(max(resumes, 1)))
	msv("session.rehydrate_ms_mean", ratio(rehydrateSum, l.delta("viewseeker_session_rehydration_seconds_count")))
	m["session.resident_kb_per_session"] = metric{Value: median(l.residentKB), Unit: "kB", N: len(l.residentKB)}
	count("session.shed_total", l.delta(`viewseeker_session_shed_total{route="create"}`)+l.delta(`viewseeker_session_shed_total{route="rehydrate"}`))
	m["session.resume_p90_ms"] = user["resume_p90_ms"]

	// Offline-result cache and session journal.
	hits, misses := l.delta("viewseeker_store_cache_hits_total"), l.delta("viewseeker_store_cache_misses_total")
	rat("cache.hit_ratio", ratio(hits, hits+misses))
	rat("cache.evictions_per_create", ratio(l.delta("viewseeker_store_cache_evictions_total"), float64(creates)))
	msv("cache.snapshot_ms_per_create", ratio(l.delta("viewseeker_store_snapshot_write_seconds_sum")*1000, float64(creates)))
	appends := l.delta("viewseeker_store_journal_appends_total")
	msv("journal.append_ms_per_op", ratio(l.delta("viewseeker_store_journal_append_seconds_sum")*1000, appends))
	m["journal.bytes_per_op"] = metric{Value: ratio(l.delta("viewseeker_store_journal_bytes_total"), appends), Unit: "B"}

	// Offline phase: the facade's umbrella span and its children.
	perCreate := func(v float64) float64 { return ratio(v, float64(creates)) }
	msv("offline.ms_per_create", perCreate(spans.total("offline")))
	msv("offline.self_ms_per_create", perCreate(spans.self("offline")))
	msv("sql.query_ms_per_create", perCreate(spans.total("offline.query")))
	msv("view.warm_ms_per_create", perCreate(spans.total("offline.warm")))
	rat("view.scans_per_create", perCreate(l.delta("viewseeker_view_warm_scans_total")))
	msv("feature.fill_ms_per_create", perCreate(spans.total("offline.features")))
	rat("feature.views_per_create", perCreate(l.delta("viewseeker_offline_views_total")))
	parWall := (spans.total("offline") + spans.total("feedback.refine")) / 1000 * float64(l.workers)
	rat("par.occupancy", ratio(l.delta("viewseeker_par_item_seconds_sum"), parWall))

	// Online phase: selection, feedback, refinement, estimator refit.
	m["active.select_p50_ms"] = pct(spans.durations["select"], 0.50)
	m["active.select_p90_ms"] = pct(spans.durations["select"], 0.90)
	m["core.feedback_self_p50_ms"] = pct(spans.selfs["feedback"], 0.50)
	m["optimize.refine_p90_ms"] = pct(spans.durations["feedback.refine"], 0.90)
	rat("optimize.rows_per_iter", ratio(l.delta("viewseeker_optimize_refined_rows_total"), float64(iterations)))
	m["ml.refit_p50_ms"] = pct(spans.durations["feedback.refit"], 0.50)
	incr, rebuilds := l.delta("viewseeker_refit_incremental_total"), l.delta("viewseeker_refit_rebuilds_total")
	rat("ml.incremental_ratio", ratio(incr, incr+rebuilds))

	// Write path: WAL, MVCC publish, maintainer.
	msv("wal.fsync_ms_mean", ratio(l.delta("viewseeker_wal_fsync_seconds_sum")*1000, l.delta("viewseeker_wal_fsync_seconds_count")))
	m["wal.bytes_per_row"] = metric{Value: ratio(l.delta("viewseeker_wal_bytes_total"), l.delta("viewseeker_live_appended_rows_total")), Unit: "B"}
	m["live.append_span_p75_ms"] = pct(spans.durations["append"], 0.75)
	count("live.checkpoints", l.delta("viewseeker_live_checkpoints_total"))
	count("live.maintainer_lag_max", float64(l.fresh.maxLag))
	m["live.append_p50_ms"] = user["append_p50_ms"]
	m["live.append_p75_ms"] = user["append_p75_ms"]
	m["live.fresh_p75_ms"] = user["fresh_p75_ms"]

	m["quality.topk_precision"] = user["topk_precision"]
	return m
}

// spanStats aggregates root spans and their descendants by name.
type spanStats struct {
	durations map[string][]float64 // ms, every span of the name
	selfs     map[string][]float64 // ms, duration minus children's union
}

func collectSpans(roots []*span) *spanStats {
	st := &spanStats{durations: make(map[string][]float64), selfs: make(map[string][]float64)}
	var walk func(s *span)
	walk = func(s *span) {
		st.durations[s.Name] = append(st.durations[s.Name], ms(time.Duration(s.Duration)))
		st.selfs[s.Name] = append(st.selfs[s.Name], ms(selfTime(s)))
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, s := range roots {
		walk(s)
	}
	return st
}

func (st *spanStats) total(name string) float64 { return sum(st.durations[name]) }
func (st *spanStats) self(name string) float64  { return sum(st.selfs[name]) }

// selfTime is a span's duration minus the union of its children's
// intervals (clipped to the span): children of a par fan-out overlap, so
// subtracting their summed durations would undercount, even below zero.
func selfTime(s *span) time.Duration {
	lo, hi := s.Start, s.end()
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(s.Children))
	for _, c := range s.Children {
		a, b := c.Start, c.end()
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	if self := time.Duration(s.Duration) - covered; self > 0 {
		return self
	}
	return 0
}
