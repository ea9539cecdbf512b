package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request phases. Only window and saturation requests count as attempted.
const (
	phaseWindow  = 0
	phaseSat     = 1
	phaseWarmup  = 2
	phaseHistory = 3  // journalled sessions written before boot (no requests)
	phaseControl = -1 // metricz scrapes, pre-seeding, final checks
)

// tl is the paper's interactive budget for one labelling iteration.
const tl = time.Second

// request is one HTTP exchange as the client saw it. Latency runs from
// due (when the simulated user issued it) to done, so time spent queued
// for one of the client's connections counts.
type request struct {
	route    string
	id       string
	phase    int
	due      time.Time
	sent     time.Time
	done     time.Time
	connWait time.Duration
	status   int // 0 for a transport error
}

// client is the harness's single HTTP client: at most conns keep-alive
// connections, every request tagged with a minted X-Request-Id that joins
// it to the server's access-log line.
type client struct {
	base     string
	hc       *http.Client
	inflight atomic.Int64
	ids      atomic.Int64

	mu   sync.Mutex
	reqs []request
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     5 * time.Minute,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct {
	route  string
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.route, e.status, e.body)
}

// do waits until due, sends the request, and decodes a 2xx JSON answer
// into out (when non-nil). Every attempt is recorded.
func (c *client) do(route, method, path string, body []byte, due time.Time, phase int, out any) (request, error) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	r := request{route: route, phase: phase, due: due, id: "b" + strconv.FormatInt(c.ids.Add(1), 10)}
	var rdr io.Reader = http.NoBody
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	var getConn time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GetConn: func(string) { getConn = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { r.connWait = time.Since(getConn) },
	})
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return r, err
	}
	req.Header.Set("X-Request-Id", r.id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.sent = time.Now()
	resp, err := c.hc.Do(req)
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.done = time.Now()
	if err != nil {
		r.status = 0
		c.record(r)
		return r, fmt.Errorf("%s: %w", route, err)
	}
	c.record(r)
	if r.status < 200 || r.status >= 300 {
		return r, &statusError{route: route, status: r.status, body: string(bytes.TrimSpace(b))}
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return r, fmt.Errorf("%s: decoding answer: %w", route, err)
		}
	}
	return r, nil
}

func (c *client) record(r request) {
	c.mu.Lock()
	c.reqs = append(c.reqs, r)
	c.mu.Unlock()
}

// requests returns the recorded requests of the given phase.
func (c *client) requests(phase int) []request {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []request
	for _, r := range c.reqs {
		if r.phase == phase {
			out = append(out, r)
		}
	}
	return out
}

// label is one label a session sent.
type label struct {
	View  int
	Label float64
}

// sessionRun is one simulated user's conversation and what it observed.
type sessionRun struct {
	user  userKey
	query string
	alpha float64
	seed  int64
	steps int
	id    string
	// history is the journalled label history of a returning user's
	// session (nil for new sessions).
	history []label
	labels  []label

	start, end time.Time     // the first request's due time; the last answer
	createLat  time.Duration // new sessions
	resumeLat  time.Duration // returning users: the first touch
	iters      []time.Duration
	iterDue    []time.Time // when each iteration's feedback was due
	top        *topResponse
	err        error
}

// ok reports whether the conversation ran to its final GET top.
func (s *sessionRun) ok() bool { return s.err == nil && s.top != nil }

// metBudget reports whether every iteration fit the interactive budget.
func (s *sessionRun) metBudget() bool {
	for _, d := range s.iters {
		if d > tl {
			return false
		}
	}
	return s.ok()
}

// runner drives one server with one workload's simulated users.
type runner struct {
	w     *workload
	in    *inputs
	c     *client
	seed  int64
	conns int

	// next indices per (phase, kind), so saturation sessions continue the
	// window's query rotation and pick fresh returning sessions.
	newBase, retBase int
	pick             []int // permutation of history sessions for returning users

	appendedRows atomic.Int64
	fresh        *freshness
}

func newRunner(w *workload, in *inputs, seed int64, base string, conns int) *runner {
	r := &runner{w: w, in: in, seed: seed, conns: conns, c: newClient(base, conns),
		fresh: &freshness{pending: make(map[uint64]time.Time), wake: make(chan struct{}, 1)}}
	if len(in.history) > 0 {
		r.pick = rngFor(seed, streamPick).Perm(len(in.history))
	}
	return r
}

// newSession sets up user index of kind in phase.
func (r *runner) newSession(kind sessionKind, phase, index int) *sessionRun {
	u := userKey{kind: kind, phase: phase, index: index}
	if kind == kindReturning {
		// Every returning user touches a distinct journalled session (each
		// closes it at the end); measure and saturationKind keep the
		// position within the history.
		h := r.in.history[r.pick[r.retBase+index]]
		s := &sessionRun{user: u, id: h.Create.Session, query: h.Create.Query, alpha: h.Create.Alpha,
			seed: h.Create.Seed, steps: r.w.returnIters}
		for _, fb := range h.Feedback {
			s.history = append(s.history, label{fb.View, fb.Label})
		}
		return s
	}
	return &sessionRun{user: u, query: r.in.queries[(r.newBase+index)%len(r.in.queries)],
		alpha: r.w.alpha, seed: sessionSeed(r.seed, u), steps: r.w.iters}
}

// labelFor is the simulated user's label for view.
func (r *runner) labelFor(s *sessionRun, view int) float64 {
	if u := r.in.ideal[s.query]; u != nil {
		return u.Label(view)
	}
	return hashLabel(r.seed, s.user, view)
}

// nextAnswer is GET /api/sessions/{id}/next.
type nextAnswer struct {
	Done  bool `json:"done"`
	Index int  `json:"index"`
}

// converse runs the session script from start: create (new users) →
// next → {think, feedback, next} × steps → top → delete. Each request is
// due when the previous answer arrived, plus the think time before a
// label. The user closing the session at the end keeps server memory
// proportional to the concurrently active sessions, not to every session
// a run ever opened.
func (r *runner) converse(s *sessionRun, start time.Time, thinkMean time.Duration, phase int) {
	now := start
	s.start = start
	if s.user.kind != kindReturning {
		body, _ := json.Marshal(map[string]any{"table": r.w.table, "query": s.query, "k": r.w.k,
			"alpha": s.alpha, "seed": s.seed})
		var info struct {
			ID string `json:"id"`
		}
		req, err := r.c.do("create", "POST", "/api/sessions", body, now, phase, &info)
		if err != nil {
			s.err = err
			return
		}
		s.id, s.createLat, now = info.ID, req.done.Sub(req.due), req.done
	}
	path := "/api/sessions/" + s.id
	var nx nextAnswer
	req, err := r.c.do("next", "GET", path+"/next", nil, now, phase, &nx)
	if err != nil {
		s.err = err
		return
	}
	if s.user.kind == kindReturning {
		s.resumeLat = req.done.Sub(req.due)
	}
	now = req.done
	for step := 0; step < s.steps; step++ {
		if nx.Done {
			s.err = fmt.Errorf("session %s: view space exhausted after %d labels", s.id, len(s.labels))
			return
		}
		due := now.Add(think(r.seed, thinkMean, s.user, step))
		lb := label{nx.Index, r.labelFor(s, nx.Index)}
		body, _ := json.Marshal(map[string]any{"index": lb.View, "label": lb.Label})
		fb, err := r.c.do("feedback", "POST", path+"/feedback", body, due, phase, nil)
		if err != nil {
			s.err = err
			return
		}
		s.labels = append(s.labels, lb)
		req, err := r.c.do("next", "GET", path+"/next", nil, fb.done, phase, &nx)
		if err != nil {
			s.err = err
			return
		}
		s.iters = append(s.iters, req.done.Sub(due))
		s.iterDue = append(s.iterDue, due)
		now = req.done
	}
	var top topResponse
	req, err = r.c.do("top", "GET", path+"/top", nil, now, phase, &top)
	if err != nil {
		s.err = err
		return
	}
	if req, err = r.c.do("delete", "DELETE", path, nil, req.done, phase, nil); err != nil {
		s.err = err
		return
	}
	s.top, s.end = &top, req.done
}

// warmup opens one session per warm-up query and asks for its first view
// and top-k, outside any measurement: the caches and lazily built state a
// long-running server would already hold.
func (r *runner) warmup() error {
	for i, q := range r.in.warmup {
		s := &sessionRun{user: userKey{kindNew, phaseWarmup, i}, query: q, alpha: r.w.alpha}
		s.seed = sessionSeed(r.seed, s.user)
		r.converse(s, time.Now(), 0, phaseWarmup)
		if s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}

// appendBatch sends append batch idx of phase when due. In the open-loop
// window its acknowledged sequence is handed to the freshness poller.
func (r *runner) appendBatch(body []byte, due time.Time, phase int) error {
	var ack appendAck
	req, err := r.c.do("append", "POST", "/api/tables/"+r.w.table+"/append", body, due, phase, &ack)
	if err != nil {
		return err
	}
	r.appendedRows.Add(int64(ack.Rows))
	if phase == phaseWindow {
		r.fresh.ack(ack.Seq, req.done)
	}
	return nil
}

// windowResult is what the open-loop window observed.
type windowResult struct {
	start, end time.Time // window start; end of the drain
	length     time.Duration
	sessions   []*sessionRun
	appendErrs []error
	backlog    []int64 // in-flight requests sampled every backlogEvery
	backlogEnd int64
}

const backlogEvery = 100 * time.Millisecond

// openLoop runs the window: sessions (and append batches) arrive on the
// schedule regardless of how the server keeps up, then in-flight
// conversations drain. start is when offset 0 falls due.
func (r *runner) openLoop(sched *schedule, window time.Duration, start time.Time) *windowResult {
	res := &windowResult{start: start, length: window}
	bodies := make(map[int][]byte)
	for _, ev := range sched.events {
		if ev.kind == kindAppend {
			bodies[ev.index] = appendBody(r.seed, phaseWindow, ev.index, r.w.appendRows)
		}
	}
	stopPoll := make(chan struct{})
	var bg sync.WaitGroup
	if r.w.live {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r.fresh.poll(r.c, stopPoll)
		}()
	}
	stopSample := make(chan struct{})
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(backlogEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				res.backlog = append(res.backlog, r.c.inflight.Load())
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, ev := range sched.events {
		due := start.Add(ev.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		if ev.kind == kindAppend {
			go func(body []byte) {
				defer wg.Done()
				if err := r.appendBatch(body, due, phaseWindow); err != nil {
					mu.Lock()
					res.appendErrs = append(res.appendErrs, err)
					mu.Unlock()
				}
			}(bodies[ev.index])
			continue
		}
		s := r.newSession(ev.kind, phaseWindow, ev.index)
		res.sessions = append(res.sessions, s)
		go func() {
			defer wg.Done()
			r.converse(s, due, r.w.think, phaseWindow)
		}()
	}
	if d := time.Until(start.Add(window)); d > 0 {
		time.Sleep(d)
	}
	res.backlogEnd = r.c.inflight.Load()
	close(stopSample)
	wg.Wait()
	close(stopPoll)
	bg.Wait()
	res.end = time.Now()
	r.newBase += sched.count(kindNew)
	r.retBase += sched.count(kindReturning)
	return res
}

// saturate runs the closed-loop phase: conns clients run the session
// script back to back with no think time until dur has passed, then finish
// the conversation they are in. goodput is the rate of sessions whose
// every iteration fit tl: the share that did, times conns clients over the
// median session duration (per kind, weighted by the mix). Medians keep a
// host stall during part of the phase from moving the number. The append
// writer does not run here: its interference is the open-loop window's to
// measure, and a few appends holding one of two connections would swamp
// the phase.
func (r *runner) saturate(dur time.Duration) (goodput float64, sessions []*sessionRun) {
	deadline := time.Now().Add(dur)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < r.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				idx := int(next.Add(1) - 1)
				s := r.newSession(r.saturationKind(idx), phaseSat, idx)
				r.converse(s, time.Now(), 0, phaseSat)
				mu.Lock()
				sessions = append(sessions, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	durations := make(map[sessionKind][]float64)
	good := 0
	for _, s := range sessions {
		if s.metBudget() {
			good++
			durations[s.user.kind] = append(durations[s.user.kind], s.end.Sub(s.start).Seconds())
		}
	}
	if good == 0 {
		return 0, sessions
	}
	cycle := 0.0
	for _, ds := range durations {
		cycle += float64(len(ds)) / float64(good) * median(ds)
	}
	return float64(good) / float64(len(sessions)) * float64(r.conns) / cycle, sessions
}

// saturationKind alternates new and returning users on budget_churn, the
// window's mix, while journalled sessions remain untouched; other
// workloads only have new sessions.
func (r *runner) saturationKind(idx int) sessionKind {
	if r.w.returnRate > 0 && idx%2 == 1 && r.retBase+idx < len(r.pick) {
		return kindReturning
	}
	return kindNew
}

// freshness tracks append visibility: from an append's ack until GET
// /healthz reports that sequence with maintainerLag 0. The poller runs only
// while some acknowledged append is not yet visible.
type freshness struct {
	wake chan struct{} // capacity 1: acks during a pending poll need no second wake-up

	mu      sync.Mutex
	pending map[uint64]time.Time
	lat     []time.Duration
	maxLag  uint64
	errs    []error
}

func (f *freshness) ack(seq uint64, at time.Time) {
	f.mu.Lock()
	f.pending[seq] = at
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// pollEvery is the freshness polling period.
const pollEvery = time.Millisecond

// poll checks /healthz every pollEvery while appends are pending, until
// stop is closed and nothing is pending. An append still invisible
// freshWait after stop is an error.
func (f *freshness) poll(c *client, stop <-chan struct{}) {
	const freshWait = 10 * time.Second
	var deadline time.Time // set once stop closes
	for {
		f.mu.Lock()
		n := len(f.pending)
		f.mu.Unlock()
		if n == 0 {
			select {
			case <-stop:
				return
			case <-f.wake:
				continue
			}
		}
		if deadline.IsZero() {
			select {
			case <-stop:
				deadline = time.Now().Add(freshWait)
			default:
			}
		} else if time.Now().After(deadline) {
			f.mu.Lock()
			f.errs = append(f.errs, fmt.Errorf("%d append(s) not visible with maintainerLag 0 after %s", n, freshWait))
			f.mu.Unlock()
			return
		}
		var h healthResponse
		if _, err := c.do("healthz", "GET", "/healthz", nil, time.Now(), phaseWindow, &h); err != nil {
			f.mu.Lock()
			f.errs = append(f.errs, err)
			f.pending = make(map[uint64]time.Time)
			f.mu.Unlock()
			continue
		}
		now := time.Now()
		if len(h.Live) > 0 {
			st := h.Live[0]
			f.mu.Lock()
			f.maxLag = max(f.maxLag, st.MaintainerLag)
			if st.MaintainerLag == 0 {
				for seq, at := range f.pending {
					if seq <= st.Seq {
						f.lat = append(f.lat, now.Sub(at))
						delete(f.pending, seq)
					}
				}
			}
			f.mu.Unlock()
		}
		time.Sleep(pollEvery)
	}
}
