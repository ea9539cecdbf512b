// Command benchmark is the repository's benchmark of record. It drives the
// real cmd/serve binary, as a subprocess, with seeded simulated users over
// loopback HTTP, and reports the end-to-end metrics and per-layer metrics
// listed in BENCHMARK.json for one workload, or for all four.
//
// Each run generates its inputs from -seed, boots the server three times
// (setup_s is the median boot), warms the caches a long-running server
// would hold, then measures an open-loop window (Poisson session
// arrivals, latency timed from when each request was due) and a
// closed-loop saturation phase (goodput). Afterwards, untimed, it checks
// the server's answers: sampled sessions are replayed in-process through
// viewseeker.New and must match the server's top-k exactly. With -trace 1
// it instead runs the window with -trace-log, between two untraced
// half-length windows, and attributes time to layers from the access log,
// /metricz deltas and the trace spans.
//
// Run it through run.sh, which builds cmd/serve and this harness from the
// checkout:
//
//	bash benchmark/run.sh --workload explore_cold --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1 -o out.json            # all four workloads
//	bash benchmark/run.sh -compare a.json b.json         # apply BENCHMARK.json's bounds
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero when
// any correctness check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (empty = all, in BENCHMARK.json order)")
		seed      = flag.Int64("seed", 1, "seed for every generated input and the arrival schedule")
		seconds   = flag.Int("seconds", 20, "measured seconds per run: 3/4 open-loop window, 1/4 saturation")
		traceMode = flag.Int("trace", 0, "1 = per-layer pass: the window with -trace-log, between untraced half windows")
		serveBin  = flag.String("serve", "", "built cmd/serve binary (run.sh builds it)")
		workdir   = flag.String("workdir", ".bench_build", "directory for generated inputs and server state")
		out       = flag.String("o", "", "also write the full report (every metric with its sample count) here")
		compare   = flag.Bool("compare", false, "compare two reports: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		os.Exit(compareReports(sp, flag.Args()))
	}
	if *serveBin == "" {
		fatal(errors.New("no -serve binary; run through benchmark/run.sh"))
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fatal(errors.New("-seconds must be at least 1 and -trace 0 or 1"))
	}
	var names []string
	for _, w := range sp.Workloads {
		if *name == "" || w.Name == *name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	b := &bench{
		seed: *seed, trace: *traceMode == 1, spec: sp,
		start: processStarter(*serveBin), conns: runtime.NumCPU(), maxLag: maxSchedLag,
	}
	b.setSeconds(*seconds)
	rep := &report{Seed: *seed, Seconds: *seconds, Trace: *traceMode, Conns: b.conns, Workloads: map[string]*result{}}
	for _, n := range names {
		w := workloadNamed(n)
		if w == nil {
			fatal(fmt.Errorf("BENCHMARK.json names workload %q, which the harness does not define", n))
		}
		res := b.run(w, filepath.Join(dir, n))
		rep.Workloads[n] = res
		printResult(os.Stdout, n, b, res)
	}
	if *out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	line := rep.line(sp, names, b.trace)
	data, _ := json.Marshal(line)
	fmt.Println(string(data))
	if !line.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

// progress reports on standard error how long a step took since *t, and
// restarts *t.
func progress(w *workload, step string, t *time.Time) {
	fmt.Fprintf(os.Stderr, "benchmark: %s: %s %.1fs\n", w.name, step, time.Since(*t).Seconds())
	*t = time.Now()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// bench holds one invocation's settings.
type bench struct {
	seed  int64
	trace bool
	spec  *spec
	start starter
	conns int // client connections and saturation clients: nproc
	win   time.Duration
	sat   time.Duration
	// maxLag is the client's p99 scheduling-lag bound (maxSchedLag; tests
	// under the race detector relax it).
	maxLag time.Duration
}

// setSeconds splits the measured time: three quarters open-loop window,
// one quarter saturation.
func (b *bench) setSeconds(s int) {
	total := time.Duration(s) * time.Second
	b.win = total * 3 / 4
	b.sat = total - b.win
}

// result is one workload's outcome. Metrics holds everything measured;
// the final output line carries the subset BENCHMARK.json lists for the
// mode.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []string          `json:"checks,omitempty"`
}

func (res *result) failf(format string, args ...any) {
	res.Checks = append(res.Checks, fmt.Sprintf(format, args...))
}

// run prepares w's inputs, runs the end-to-end or the per-layer pass, and
// requires every metric BENCHMARK.json lists for the mode, in its unit.
func (b *bench) run(w *workload, dir string) *result {
	res := &result{Metrics: map[string]metric{}}
	defer func() { res.Correct = len(res.Checks) == 0 }()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.failf("%v", err)
		return res
	}
	t := time.Now()
	in, err := prepare(w, b.seed, dir, b.start)
	if err != nil {
		res.failf("preparing inputs: %v", err)
		return res
	}
	progress(w, "inputs", &t)
	listed := b.spec.EndToEnd
	if b.trace {
		b.traced(w, in, dir, res)
		listed = b.spec.PerLayer
	} else {
		b.endToEnd(w, in, dir, res)
	}
	if len(res.Checks) > 0 {
		return res
	}
	for _, ms := range listed {
		if m, ok := res.Metrics[ms.Name]; !ok {
			res.failf("metric %s was not measured", ms.Name)
		} else if m.Unit != ms.Unit {
			res.failf("metric %s measured in %s, BENCHMARK.json says %s", ms.Name, m.Unit, ms.Unit)
		}
	}
	return res
}

func (b *bench) config(w *workload, in *inputs, state, traceLog string) serverConfig {
	cfg := serverConfig{table: w.table, csv: in.csv, traceLog: traceLog}
	if w.cacheDir {
		cfg.cacheDir, cfg.budget = state, w.budgetBytes
	}
	if w.live {
		cfg.walDir, cfg.checkpointBytes = state, w.checkpointBytes
	}
	return cfg
}

// measured is one booted server's warm-up and open-loop window.
type measured struct {
	srv           *server
	r             *runner
	nums          *windowNumbers
	before, after map[string]float64
	// residentKB samples the accounted bytes per resident session during a
	// traced window (sessions close when done, so the end has none left).
	residentKB []float64
}

// residentEvery is how often a traced window samples resident sessions.
const residentEvery = 250 * time.Millisecond

// measure warms srv up and runs one open-loop window of the given length
// against it; a traced window also samples resident session sizes.
func (b *bench) measure(w *workload, in *inputs, srv *server, window time.Duration, traced bool) (*measured, error) {
	r := newRunner(w, in, b.seed, srv.base, b.conns)
	if err := r.warmup(); err != nil {
		return nil, err
	}
	sched := newSchedule(w, b.seed, window)
	if n := sched.count(kindReturning); n > len(in.history) {
		return nil, fmt.Errorf("%d returning users but only %d journalled sessions", n, len(in.history))
	}
	before, err := scrape(r.c)
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	cpu0, err := procCPU(srv.pid)
	if err != nil {
		return nil, err
	}
	m := &measured{srv: srv, r: r, before: before}
	sampled := make(chan error, 1)
	go func() {
		if !traced {
			sampled <- nil
			return
		}
		for t := start.Add(residentEvery); t.Before(start.Add(window)); t = t.Add(residentEvery) {
			time.Sleep(time.Until(t))
			h, err := health(r.c)
			if err != nil {
				sampled <- err
				return
			}
			if sm := h.SessionManager; sm.Resident > 0 {
				m.residentKB = append(m.residentKB, float64(sm.ResidentBytes)/float64(sm.Resident)/1024)
			}
		}
		sampled <- nil
	}()
	win := r.openLoop(sched, window, start)
	if err := <-sampled; err != nil {
		return nil, err
	}
	cpu1, err := procCPU(srv.pid)
	if err != nil {
		return nil, err
	}
	hwm, err := procHWM(srv.pid)
	if err != nil {
		return nil, err
	}
	if m.after, err = scrape(r.c); err != nil {
		return nil, err
	}
	m.nums = &windowNumbers{win: win, reqs: r.c.requests(phaseWindow), cpu: cpu1 - cpu0, hwmKB: hwm}
	return m, nil
}

// endToEnd is the untraced run: three boots, the window, saturation, the
// correctness checks.
func (b *bench) endToEnd(w *workload, in *inputs, dir string, res *result) {
	state := filepath.Join(dir, "state")
	if err := copyState(in.state, state); err != nil {
		res.failf("%v", err)
		return
	}
	cfg := b.config(w, in, state, "")
	var boots []float64
	var srv *server
	for i := 0; i < 3; i++ {
		s, err := b.start(cfg)
		if err != nil {
			res.failf("boot %d: %v", i+1, err)
			return
		}
		boots = append(boots, s.boot.Seconds())
		if i < 2 {
			if err := s.stop(); err != nil {
				res.failf("stopping boot %d: %v", i+1, err)
				return
			}
			continue
		}
		srv = s
	}
	t := time.Now()
	defer func() {
		if err := srv.stop(); err != nil {
			res.failf("%v", err)
		}
		progress(w, "stop", &t)
	}()
	m, err := b.measure(w, in, srv, b.win, false)
	if err != nil {
		res.failf("%v", err)
		return
	}
	progress(w, "warm-up and window", &t)
	goodput, satSessions := m.r.saturate(b.sat)
	m.nums.goodput, m.nums.satN = goodput, len(satSessions)
	progress(w, "saturation", &t)
	b.check(w, in, m, satSessions, res)
	progress(w, "checks", &t)
	res.Metrics = userMetrics(m.nums, boots, in, m.r.fresh)
	res.Attempted, res.Failed = countFailures(append(m.nums.reqs, m.r.c.requests(phaseSat)...))
}

// traced is the per-layer run. The window runs traced (-trace-log) on a
// fresh boot, and its access log, /metricz deltas and spans give the layer
// metrics. Untraced half-length windows before and after it, each on its
// own boot, give trace.overhead_pct: comparing the traced median against
// both halves cancels a host that drifts steadily faster or slower.
func (b *bench) traced(w *workload, in *inputs, dir string, res *result) {
	var untraced []float64
	var last *measured
	var user map[string]metric
	for pass, traced := range []bool{false, true, false} {
		state := filepath.Join(dir, fmt.Sprintf("state%d", pass))
		if err := copyState(in.state, state); err != nil {
			res.failf("%v", err)
			return
		}
		traceLog, window := "", b.win/2
		if traced {
			traceLog, window = filepath.Join(dir, "trace.jsonl"), b.win
		}
		srv, err := b.start(b.config(w, in, state, traceLog))
		if err != nil {
			res.failf("boot: %v", err)
			return
		}
		m, err := b.measure(w, in, srv, window, traced)
		if err == nil {
			b.check(w, in, m, nil, res)
			u := userMetrics(m.nums, nil, in, m.r.fresh)
			if traced {
				last, user = m, u
			} else {
				untraced = append(untraced, u["iter_p50_ms"].Value)
			}
			a, f := countFailures(m.nums.reqs)
			res.Attempted += a
			res.Failed += f
		}
		if serr := srv.stop(); serr != nil {
			res.failf("%v", serr)
		}
		if err != nil {
			res.failf("%v", err)
			return
		}
	}
	spans, err := readSpans(filepath.Join(dir, "trace.jsonl"), last.nums.win.start, last.nums.win.end)
	if err != nil {
		res.failf("reading trace log: %v", err)
		return
	}
	res.Metrics = layerMetrics(&layerNumbers{
		windowNumbers: last.nums, log: last.srv.log, before: last.before, after: last.after,
		residentKB: last.residentKB, spans: spans, workers: b.conns, fresh: last.r.fresh,
	}, user)
	base := mean(untraced)
	res.Metrics["trace.overhead_pct"] = metric{Value: ratio(user["iter_p50_ms"].Value-base, base) * 100, Unit: "%"}
}

// maxSchedLag is the run-validity bound on the client's p99 lateness. On
// two vCPUs a create's two-worker fan-out holds both for tens of
// milliseconds, so a client goroutine due meanwhile waits for a CPU; p99
// lag reached 5.8 ms in runs that were otherwise sound. Latency is timed
// from the due time, so lag is charged to the request either way; the
// bound catches a client too busy to keep its schedule at all.
const maxSchedLag = 20 * time.Millisecond

// check runs the untimed correctness checks after a window: every
// conversation finished (a 429 is a counted refusal, anything else a
// failure), sampled sessions replay to the same top-k in-process, spec
// order agrees, live row counts add up, and the client kept its schedule.
func (b *bench) check(w *workload, in *inputs, m *measured, sat []*sessionRun, res *result) {
	win := m.nums.win
	for _, s := range append(append([]*sessionRun(nil), win.sessions...), sat...) {
		var se *statusError
		if s.err != nil && !(errors.As(s.err, &se) && se.status == 429) {
			res.failf("session %d/%d: %v", s.user.phase, s.user.index, s.err)
		}
	}
	for _, err := range win.appendErrs {
		res.failf("append: %v", err)
	}
	for _, err := range m.r.fresh.errs {
		res.failf("freshness: %v", err)
	}
	var done []*sessionRun
	for _, s := range win.sessions {
		if s.ok() {
			done = append(done, s)
		}
	}
	if len(done) == 0 {
		res.failf("no session completed in the window")
	}
	for _, s := range w.oracleSessions(done) {
		if err := replay(in, w.k, s); err != nil {
			res.failf("oracle: %v", err)
		}
	}
	if err := checkSpecs(in, append(done, sat...)); err != nil {
		res.failf("spec order: %v", err)
	}
	if w.live {
		h, err := health(m.r.c)
		switch {
		case err != nil:
			res.failf("final /healthz: %v", err)
		case len(h.Live) != 1:
			res.failf("final /healthz lists %d live tables, want 1", len(h.Live))
		default:
			want := in.table.NumRows() + in.preseedRows + int(m.r.appendedRows.Load())
			if h.Live[0].Rows != want {
				res.failf("live table has %d rows, want %d (base %d + pre-seeded %d + appended %d)",
					h.Live[0].Rows, want, in.table.NumRows(), in.preseedRows, m.r.appendedRows.Load())
			}
		}
	}
	var lag []float64
	for _, r := range m.nums.reqs {
		lag = append(lag, ms(r.sent.Sub(r.due)))
	}
	if p, _ := percentile(lag, 0.99); p > ms(b.maxLag) {
		res.failf("invalid run: client scheduling lag p99 %.2f ms exceeds %v", p, b.maxLag)
	}
	if growing(win.backlog, b.conns) {
		res.failf("invalid run: the request backlog grew through the window (%v)", win.backlog)
	}
}

// growing reports whether the sampled in-flight request count trended up
// through the window, as an overloaded server's does: the last quarter's
// mean exceeds twice the first half's plus ten requests per connection.
// Bursts of a Poisson schedule come and go; overload climbs into the
// hundreds.
func growing(samples []int64, conns int) bool {
	n := len(samples)
	if n < 8 {
		return false
	}
	avg := func(xs []int64) float64 {
		t := 0.0
		for _, x := range xs {
			t += float64(x)
		}
		return t / float64(len(xs))
	}
	return avg(samples[n*3/4:]) > 2*avg(samples[:n/2])+10*float64(conns)
}

// printResult writes one workload's metrics, sample counts and failed
// checks for people.
func printResult(w *os.File, name string, b *bench, res *result) {
	mode := fmt.Sprintf("end-to-end: %s window + %s saturation", b.win, b.sat)
	if b.trace {
		mode = fmt.Sprintf("per-layer: %s traced window between untraced %s windows", b.win, b.win/2)
	}
	fmt.Fprintf(w, "== %s  seed %d  %s\n", name, b.seed, mode)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		note := ""
		switch {
		case m.Short && m.N == 0:
			note = "no samples"
		case m.Short:
			note = fmt.Sprintf("n=%d, fewer than %d beyond this percentile", m.N, minBeyond)
		case m.N > 0:
			note = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", k, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "  requests: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, c := range res.Checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

// report is the -o document.
type report struct {
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Conns     int                `json:"conns"`
	Workloads map[string]*result `json:"workloads"`
}

// outputLine is the final standard-output line.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueMetric `json:"metrics"`
}

type valueMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line builds the final output line from the metrics BENCHMARK.json lists
// for the mode: end_to_end untraced, per_layer traced. With several
// workloads the metric names are prefixed with the workload.
func (rep *report) line(sp *spec, names []string, traced bool) outputLine {
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
	}
	out := outputLine{Correct: true, Metrics: map[string]valueMetric{}}
	for _, n := range names {
		res := rep.Workloads[n]
		for _, ms := range want {
			key := ms.Name
			if len(names) > 1 {
				key = n + "." + ms.Name
			}
			out.Metrics[key] = valueMetric{Value: res.Metrics[ms.Name].Value, Unit: ms.Unit}
		}
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
	}
	if out.Attempted == 0 {
		out.Attempted = 1 // nothing ran; the run is already incorrect
		out.Correct = false
	}
	return out
}
