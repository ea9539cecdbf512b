package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; under -race this is also the data-race proof for
// the whole metric hot path.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("viewseeker_test_ops_total")
	g := reg.Gauge("viewseeker_test_inflight")
	h := reg.Histogram("viewseeker_test_latency_seconds", []float64{0.01, 0.1, 1})

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(0.05) // lands in the 0.1 bucket
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0 (balanced inc/dec)", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	want := 0.05 * workers * perWorker
	if got := h.Sum(); got < want*0.999 || got > want*1.001 {
		t.Errorf("histogram sum = %g, want ≈ %g", got, want)
	}
}

// TestSameNameSharesHandle: the registry is get-or-create, so two
// subsystems naming the same series share one metric.
func TestSameNameSharesHandle(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("viewseeker_retry_backoffs_total")
	b := reg.Counter("viewseeker_retry_backoffs_total")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter did not share state")
	}
}

// TestPrometheusExpositionGolden pins the exact text exposition: TYPE
// lines per family, sorted families, label splicing, cumulative histogram
// buckets with _sum and _count.
func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("viewseeker_store_cache_hits_total").Add(3)
	reg.Gauge("viewseeker_server_inflight_requests").Set(2)
	reg.Counter(`viewseeker_server_requests_total{route="top",code="200"}`).Add(5)
	reg.Counter(`viewseeker_server_requests_total{route="top",code="404"}`).Inc()
	h := reg.Histogram(`viewseeker_server_request_seconds{route="top"}`, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE viewseeker_server_inflight_requests gauge
viewseeker_server_inflight_requests 2
# TYPE viewseeker_server_request_seconds histogram
viewseeker_server_request_seconds_bucket{route="top",le="0.1"} 1
viewseeker_server_request_seconds_bucket{route="top",le="1"} 3
viewseeker_server_request_seconds_bucket{route="top",le="+Inf"} 4
viewseeker_server_request_seconds_sum{route="top"} 3.05
viewseeker_server_request_seconds_count{route="top"} 4
# TYPE viewseeker_server_requests_total counter
viewseeker_server_requests_total{route="top",code="200"} 5
viewseeker_server_requests_total{route="top",code="404"} 1
# TYPE viewseeker_store_cache_hits_total counter
viewseeker_store_cache_hits_total 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestJSONDump checks the /debug/vars-style document decodes and carries
// the same values as the registry.
func TestJSONDump(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("viewseeker_x_total").Add(7)
	reg.Histogram("viewseeker_y_seconds", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count   int64            `json:"count"`
			Sum     float64          `json:"sum"`
			Buckets map[string]int64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if doc.Counters["viewseeker_x_total"] != 7 {
		t.Errorf("counter in dump = %d, want 7", doc.Counters["viewseeker_x_total"])
	}
	hy := doc.Histograms["viewseeker_y_seconds"]
	if hy.Count != 1 || hy.Sum != 0.5 || hy.Buckets["1"] != 1 || hy.Buckets["+Inf"] != 1 {
		t.Errorf("histogram in dump = %+v", hy)
	}
}

// TestSnapshotKeys: histograms flatten with label sets preserved.
func TestSnapshotKeys(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(`viewseeker_h_seconds{route="x"}`, []float64{1}).Observe(0.25)
	snap := reg.Snapshot()
	if snap[`viewseeker_h_seconds_count{route="x"}`] != 1 {
		t.Errorf("snapshot keys = %v", snap)
	}
	if snap[`viewseeker_h_seconds_sum{route="x"}`] != 0.25 {
		t.Errorf("snapshot sum = %v", snap)
	}
}

// TestSpanNesting builds root → (child1, child2 → grandchild) through
// contexts and checks the recorded tree shape, ordering, and that
// durations are monotonic-positive and nested within the parent's.
func TestSpanNesting(t *testing.T) {
	tr := NewTracer(4)
	ctx := NewContext(context.Background(), nil, tr)

	ctx1, root := StartSpan(ctx, "request")
	cctx, c1 := StartSpan(ctx1, "phase1")
	time.Sleep(time.Millisecond)
	c1.End()
	_, c2 := StartSpan(ctx1, "phase2")
	gctx, g := StartSpan(cctx, "unused") // parent already ended: still attaches under c1's data
	_ = gctx
	g.End()
	time.Sleep(time.Millisecond)
	c2.End()
	root.End()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("Recent() = %d traces, want 1 (children must not surface as roots)", len(recent))
	}
	got := recent[0]
	if got.Name != "request" {
		t.Fatalf("root span = %q", got.Name)
	}
	if len(got.Children) != 2 || got.Children[0].Name != "phase1" || got.Children[1].Name != "phase2" {
		t.Fatalf("children = %+v, want [phase1 phase2] in End order", got.Children)
	}
	if len(got.Children[0].Children) != 1 || got.Children[0].Children[0].Name != "unused" {
		t.Fatalf("grandchild missing: %+v", got.Children[0].Children)
	}
	if got.Duration <= 0 {
		t.Error("root duration not positive")
	}
	for _, c := range got.Children {
		if c.Duration < 0 || c.Duration > got.Duration {
			t.Errorf("child %s duration %d outside root's %d", c.Name, c.Duration, got.Duration)
		}
	}
}

// TestTracerRingEviction: the ring keeps only the most recent traces,
// newest first.
func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(2)
	ctx := NewContext(context.Background(), nil, tr)
	for _, name := range []string{"a", "b", "c"} {
		_, sp := StartSpan(ctx, name)
		sp.End()
	}
	recent := tr.Recent()
	if len(recent) != 2 || recent[0].Name != "c" || recent[1].Name != "b" {
		names := make([]string, len(recent))
		for i, d := range recent {
			names[i] = d.Name
		}
		t.Fatalf("Recent() = %v, want [c b]", names)
	}
}

// TestTracerSinkJSONL: with a sink installed every root span becomes one
// JSON line, children inline.
func TestTracerSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(0)
	tr.SetSink(&buf)
	ctx := NewContext(context.Background(), nil, tr)
	ctx1, root := StartSpan(ctx, "outer")
	_, c := StartSpan(ctx1, "inner")
	c.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("sink got %d lines, want 1 (only roots stream)", len(lines))
	}
	var d SpanData
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("sink line is not JSON: %v", err)
	}
	if d.Name != "outer" || len(d.Children) != 1 || d.Children[0].Name != "inner" {
		t.Fatalf("sink line = %+v", d)
	}
}

// TestSpanAttrs: attributes ride the span into the sink's JSON line, and
// setting one on the nil span is a no-op.
func TestSpanAttrs(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(0)
	tr.SetSink(&buf)
	_, sp := StartSpan(NewContext(context.Background(), nil, tr), "boot.load")
	sp.SetAttr("table", "syn")
	sp.SetAttr("rows", 3)
	sp.End()
	var d SpanData
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Attrs["table"] != "syn" || d.Attrs["rows"] != float64(3) {
		t.Errorf("attrs = %v", d.Attrs)
	}
	var nilSpan *Span
	nilSpan.SetAttr("table", "syn")
}

// TestDisabledPathAllocs pins the whole disabled surface at 0 allocs/op:
// nil handles, nil-registry lookups, and StartSpan over a context with no
// tracer. This is the zero-cost-when-disabled contract of DESIGN.md §11.
func TestDisabledPathAllocs(t *testing.T) {
	ctx := context.Background()
	var nilReg *Registry
	var nilTr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		nilReg.Counter("viewseeker_x_total").Add(1)
		nilReg.Gauge("viewseeker_y").Inc()
		nilReg.Histogram("viewseeker_z_seconds", nil).Observe(1)
		RegistryFrom(ctx).Counter("viewseeker_w_total").Inc()
		ctx2, sp := StartSpan(ctx, "phase")
		sp.End()
		nilTr.Recent()
		if ctx2 != ctx {
			t.Fatal("disabled StartSpan must return the context unchanged")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op, want 0", allocs)
	}
}

// TestEnabledObservePathAllocs: even enabled, the per-observation hot path
// (pre-resolved handles) is allocation-free.
func TestEnabledObservePathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("viewseeker_a_total")
	g := reg.Gauge("viewseeker_b")
	h := reg.Histogram("viewseeker_c_seconds", nil)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(2)
		h.Observe(0.003)
	})
	if allocs != 0 {
		t.Fatalf("enabled observe path allocates: %v allocs/op, want 0", allocs)
	}
}
