package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/store"
)

// rawJSON drives a handler and returns the exact response body bytes —
// the bit-identity comparisons below must see the wire bytes, not a
// decoded (and float-rounded) structure.
func rawJSON(t *testing.T, h http.Handler, method, path string, body any) (int, string) {
	t.Helper()
	rec := serveJSON(t, h, context.Background(), method, path, body, nil)
	return rec.Code, rec.Body.String()
}

// TestEvictionRehydrationBitIdentity is the lifecycle acceptance test:
// a server under a 1-byte budget evicts the session's in-RAM state after
// every request and rebuilds it by journal replay on the next touch; its
// responses must be byte-identical to an unbudgeted twin serving the same
// session without ever evicting.
func TestEvictionRehydrationBitIdentity(t *testing.T) {
	table := diabTable()
	budgeted := NewWithOptions(Options{SessionBudgetBytes: 1}, table)
	control := New(table)
	bh, ch := budgeted.Handler(), control.Handler()

	create := map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 5, "seed": 7}
	var bInfo, cInfo sessionInfo
	if rec := serveJSON(t, bh, context.Background(), "POST", "/api/sessions", create, &bInfo); rec.Code != http.StatusCreated {
		t.Fatalf("budgeted create = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := serveJSON(t, ch, context.Background(), "POST", "/api/sessions", create, &cInfo); rec.Code != http.StatusCreated {
		t.Fatalf("control create = %d: %s", rec.Code, rec.Body.String())
	}

	steps := []struct {
		view  int
		label float64
	}{{4, 1}, {11, 0}, {42, 0.5}, {7, 1}, {19, 0}, {3, 0.25}}
	for i, fb := range steps {
		// Force the eviction between steps too: the budget alone already
		// drops the session once the request releases it, but the explicit
		// call makes the test independent of eviction timing.
		budgeted.EvictIdleSessions()
		body := map[string]any{"index": fb.view, "label": fb.label}
		bCode, bBody := rawJSON(t, bh, "POST", "/api/sessions/"+bInfo.ID+"/feedback", body)
		cCode, cBody := rawJSON(t, ch, "POST", "/api/sessions/"+cInfo.ID+"/feedback", body)
		if bCode != http.StatusOK || cCode != http.StatusOK {
			t.Fatalf("step %d: feedback = %d / %d", i, bCode, cCode)
		}
		if bBody != cBody {
			t.Fatalf("step %d: post-eviction feedback diverged:\n got %s\nwant %s", i, bBody, cBody)
		}
		for _, route := range []string{"/top", "/weights"} {
			_, b := rawJSON(t, bh, "GET", "/api/sessions/"+bInfo.ID+route, nil)
			_, c := rawJSON(t, ch, "GET", "/api/sessions/"+cInfo.ID+route, nil)
			if b != c {
				t.Fatalf("step %d: %s diverged after rehydration:\n got %s\nwant %s", i, route, b, c)
			}
		}
	}

	snap := budgeted.Metrics().Snapshot()
	if snap["viewseeker_session_evictions_total"] < float64(len(steps)) {
		t.Errorf("evictions = %v, want >= %d", snap["viewseeker_session_evictions_total"], len(steps))
	}
	if snap["viewseeker_session_rehydrations_total"] < float64(len(steps)) {
		t.Errorf("rehydrations = %v, want >= %d", snap["viewseeker_session_rehydrations_total"], len(steps))
	}
}

// TestAdmissionControl429 pins the shedding surface: while the budget is
// exhausted by a session that cannot be evicted (it is serving a
// request), creating a session and touching an evicted one both answer
// 429 with a Retry-After hint, and service recovers once the busy request
// finishes.
func TestAdmissionControl429(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	arm := make(chan struct{}, 1)
	var armed bool
	var mu sync.Mutex
	hook := func(int) {
		mu.Lock()
		a := armed
		mu.Unlock()
		if a {
			once.Do(func() { arm <- struct{}{} })
			<-block
		}
	}
	srv := NewWithOptions(Options{SessionBudgetBytes: 1, RefineHook: hook}, diabTable())
	h := srv.Handler()

	// Two sessions: "busy" will hold the budget hostage mid-feedback;
	// "cold" probes the rehydration shed path. alpha<1 with workers:1
	// routes feedback through the refine hook.
	var busy, cold sessionInfo
	if rec := serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3, "alpha": 0.25, "workers": 1}, &busy); rec.Code != http.StatusCreated {
		t.Fatalf("create busy = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}, &cold); rec.Code != http.StatusCreated {
		t.Fatalf("create cold = %d: %s", rec.Code, rec.Body.String())
	}

	mu.Lock()
	armed = true
	mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveJSON(t, h, context.Background(), "POST", "/api/sessions/"+busy.ID+"/feedback",
			map[string]any{"index": 0, "label": 1.0}, nil)
	}()
	<-arm // the feedback handler is now parked inside the session

	rec := serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("create under pressure = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 create carries no Retry-After header")
	}
	rec = serveJSON(t, h, context.Background(), "GET", "/api/sessions/"+cold.ID+"/top", nil, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("rehydration under pressure = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 rehydration carries no Retry-After header")
	}
	var health healthResponse
	serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	if health.SessionManager.State != "shedding" || health.SessionManager.Shed < 2 {
		t.Errorf("healthz sessionManager = %+v, want shedding with >= 2 shed", health.SessionManager)
	}

	mu.Lock()
	armed = false
	mu.Unlock()
	close(block)
	<-done

	// Recovered: the busy session released, eviction can make room again.
	rec = serveJSON(t, h, context.Background(), "GET", "/api/sessions/"+cold.ID+"/top", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("rehydration after recovery = %d: %s", rec.Code, rec.Body.String())
	}
	rec = serveJSON(t, h, context.Background(), "POST", "/api/sessions",
		map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3}, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create after recovery = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestLazyRestoreIndexesCold pins the boot-cost fix: RestoreSessions
// indexes journal records without paying any offline phase — every
// restored session is cold until its first touch, which rehydrates it
// with its labels replayed.
func TestLazyRestoreIndexesCold(t *testing.T) {
	recs := []store.Record{
		{Op: store.OpCreate, Session: "aaaa", Table: "diab", Query: dataset.DIABQuery, K: 3, Seed: 9},
		{Op: store.OpFeedback, Session: "aaaa", View: 2, Label: 1},
		{Op: store.OpFeedback, Session: "aaaa", View: 5, Label: 0},
		{Op: store.OpCreate, Session: "bbbb", Table: "diab", Query: dataset.DIABQuery, K: 3},
	}
	srv := New(diabTable())
	restored, err := srv.RestoreSessions(recs)
	if err != nil || restored != 2 {
		t.Fatalf("restored %d, err %v", restored, err)
	}
	h := srv.Handler()

	var health healthResponse
	serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	if health.SessionManager.Cold != 2 || health.SessionManager.Resident != 0 {
		t.Fatalf("after lazy restore: %+v, want 2 cold / 0 resident", health.SessionManager)
	}
	if health.Sessions != 2 {
		t.Fatalf("healthz sessions = %d, want 2", health.Sessions)
	}

	var info sessionInfo
	rec := serveJSON(t, h, context.Background(), "GET", "/api/sessions/aaaa", nil, &info)
	if rec.Code != http.StatusOK || info.NumLabels != 2 {
		t.Fatalf("first touch = %d, labels = %d (want 200 with 2 replayed labels): %s",
			rec.Code, info.NumLabels, rec.Body.String())
	}
	serveJSON(t, h, context.Background(), "GET", "/healthz", nil, &health)
	if health.SessionManager.Cold != 1 || health.SessionManager.Resident != 1 ||
		health.SessionManager.Rehydrations != 1 {
		t.Fatalf("after first touch: %+v, want 1 cold / 1 resident / 1 rehydration", health.SessionManager)
	}
}

// TestBudgetedPopulationLoad drives a session population four times the
// server's budget over real HTTP: 100 DIAB sessions, 8 in flight, each
// create → 3 feedback steps → top, then a revisit pass that labels one
// more view and reads the top-k of every completed session, most of them
// evicted by then. Every session must complete or be shed with 429 and
// nothing may fail; eviction and journal-replay rehydration must both
// fire; the resident gauge, sampled through the run, must never exceed
// the budget; and feedback must stay interactive (p99 under a second).
func TestBudgetedPopulationLoad(t *testing.T) {
	const sessions, concurrency, feedback = 100, 8, 3
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	table := diabTable()
	create := func(i int) map[string]any {
		return map[string]any{"table": "diab", "query": dataset.DIABQuery, "k": 3, "seed": 7 + i}
	}

	// The budget is a quarter of what the whole population would hold
	// resident, from the accounted cost of one probe session.
	probe := NewWithOptions(Options{Logger: quiet}, table)
	if rec := serveJSON(t, probe.Handler(), context.Background(), "POST", "/api/sessions", create(0), nil); rec.Code != http.StatusCreated {
		t.Fatalf("probe create = %d: %s", rec.Code, rec.Body.String())
	}
	per := int64(probe.Metrics().Snapshot()["viewseeker_session_resident_bytes"])
	if per <= 0 {
		t.Fatal("probe session accounted zero bytes")
	}
	budget := per * sessions / 4

	srv := NewWithOptions(Options{SessionBudgetBytes: budget, Logger: quiet}, table)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var peak atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if v := int64(srv.Metrics().Snapshot()["viewseeker_session_resident_bytes"]); v > peak.Load() {
					peak.Store(v)
				}
			}
		}
	}()

	c := &loadClient{client: ts.Client(), base: ts.URL}
	type visited struct {
		path     string
		numViews int
		index    int
	}
	var (
		completed, shed atomic.Int64
		mu              sync.Mutex
		done            []visited
	)
	c.parallel(concurrency, sessions, func(i int) {
		var info sessionInfo
		err := c.do("POST", "/api/sessions", create(i), &info)
		if err == nil && info.NumViews == 0 {
			c.errs5xx.Add(1) // a created session with no views is a server bug
			return
		}
		path := "/api/sessions/" + info.ID
		for f := 0; err == nil && f < feedback; f++ {
			err = c.do("POST", path+"/feedback", map[string]any{
				"index": (i*37 + f*13) % info.NumViews, "label": float64((i + f) % 2),
			}, nil)
		}
		if err == nil {
			err = c.do("GET", path+"/top", nil, nil)
		}
		switch {
		case err == nil:
			completed.Add(1)
			mu.Lock()
			done = append(done, visited{path, info.NumViews, i})
			mu.Unlock()
		case errors.Is(err, errShed):
			shed.Add(1)
		}
	})
	// A failed revisit is counted by class in do; a shed one does not
	// un-complete its session.
	c.parallel(concurrency, len(done), func(j int) {
		s := done[j]
		err := c.do("POST", s.path+"/feedback", map[string]any{
			"index": (s.index*17 + feedback*13) % s.numViews, "label": float64(s.index % 2),
		}, nil)
		if err == nil {
			c.do("GET", s.path+"/top", nil, nil)
		}
	})
	close(stop)
	<-sampled

	if got := completed.Load() + shed.Load(); got != sessions {
		t.Errorf("completed %d + shed %d = %d, want %d sessions", completed.Load(), shed.Load(), got, sessions)
	}
	if completed.Load() == 0 {
		t.Error("no session completed")
	}
	if n5, n4, nt := c.errs5xx.Load(), c.errs4xx.Load(), c.transport.Load(); n5+n4+nt != 0 {
		t.Errorf("hard failures: %d 5xx, %d other non-2xx, %d transport; want none", n5, n4, nt)
	}
	snap := srv.Metrics().Snapshot()
	evictions, rehydrations := snap["viewseeker_session_evictions_total"], snap["viewseeker_session_rehydrations_total"]
	if evictions <= 0 || rehydrations <= 0 {
		t.Errorf("lifecycle not exercised: %v evictions, %v rehydrations", evictions, rehydrations)
	}
	if peak.Load() > budget {
		t.Errorf("resident bytes peaked at %d, over the %d-byte budget", peak.Load(), budget)
	}
	p99 := c.feedbackP99()
	if p99 >= time.Second {
		t.Errorf("feedback p99 = %v, want under 1s", p99)
	}
	t.Logf("%d/%d completed, %d shed, %v evictions, %v rehydrations, peak resident %d/%d B, feedback p99 %v",
		completed.Load(), sessions, shed.Load(), evictions, rehydrations, peak.Load(), budget, p99)
}

// errShed is what loadClient.do returns for a request still answered 429
// after loadMaxRetries retries.
var errShed = errors.New("shed")

const loadMaxRetries = 8

// loadClient issues JSON requests against a live server. A 429 is retried
// after the delay its Retry-After header names; every other non-2xx,
// transport or decode failure is counted by class. Feedback latencies are
// kept for the interactivity bound.
type loadClient struct {
	client *http.Client
	base   string

	errs5xx, errs4xx, transport atomic.Int64

	mu       sync.Mutex
	feedback []time.Duration
}

// parallel runs fn(0..n-1) on workers goroutines.
func (c *loadClient) parallel(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (c *loadClient) do(method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			c.transport.Add(1)
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
		if err != nil {
			c.transport.Add(1)
			return err
		}
		start := time.Now()
		res, err := c.client.Do(req)
		if err != nil {
			c.transport.Add(1)
			return err
		}
		if strings.HasSuffix(path, "/feedback") {
			c.mu.Lock()
			c.feedback = append(c.feedback, time.Since(start))
			c.mu.Unlock()
		}
		if res.StatusCode < 300 && out != nil {
			err = json.NewDecoder(res.Body).Decode(out)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		switch {
		case res.StatusCode == http.StatusTooManyRequests:
			if attempt == loadMaxRetries {
				return errShed
			}
			secs, _ := strconv.Atoi(res.Header.Get("Retry-After"))
			time.Sleep(time.Duration(secs) * time.Second)
			continue
		case res.StatusCode >= 500:
			c.errs5xx.Add(1)
		case res.StatusCode >= 300:
			c.errs4xx.Add(1)
		case err != nil:
			c.transport.Add(1)
		default:
			return nil
		}
		return fmt.Errorf("%s %s: %d %v", method, path, res.StatusCode, err)
	}
}

func (c *loadClient) feedbackP99() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.feedback) == 0 {
		return 0
	}
	slices.Sort(c.feedback)
	return c.feedback[(len(c.feedback)*99+99)/100-1]
}
