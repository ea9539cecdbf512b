package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil counter is a valid
// no-op; a non-nil counter is a single atomic add per Inc/Add.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (in-flight requests, resident
// entries, worker occupancy). The nil gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into a fixed cumulative-bucket
// layout (Prometheus le semantics: bucket i counts observations ≤
// bounds[i], with an implicit +Inf bucket). Observe is lock-free and
// allocation-free: a binary search over the bounds plus three atomic
// operations. The nil histogram is a valid no-op.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; non-cumulative, cumulated at exposition
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the canonical unit for
// *_seconds histograms.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// DurationBuckets is the standard latency layout, in seconds: 500µs up to
// 30s. It brackets both per-item kernel work (sub-millisecond) and whole
// offline passes (seconds).
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Registry is a named collection of metrics. Handle lookups get-or-create
// under a short critical section; the returned handles are stable and
// lock-free, so callers on hot paths resolve once and hold the pointer.
// All methods are safe for concurrent use, and every method on a nil
// *Registry returns a nil (no-op) handle.
//
// A name is a full Prometheus series name and may carry a constant label
// set: `viewseeker_server_request_seconds{route="top"}`. Two lookups with
// the same name return the same handle, so cross-cutting metrics (the
// retry layer's counters, say) are naturally shared between subsystems
// instrumented against the same registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time (scrape, JSON dump, snapshot) rather than pushed by the producer —
// the natural shape for derived values like ages ("seconds since the last
// checkpoint") that would otherwise need a ticker to stay fresh. fn is
// called with the registry lock held and must be fast and non-blocking.
// Re-registering a name replaces the function; a nil fn unregisters it.
// A nil registry ignores the call.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fn == nil {
		delete(r.gaugeFns, name)
		return
	}
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending) on first use; later lookups ignore the
// bounds argument. A nil or empty bounds slice selects DurationBuckets.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DurationBuckets
		}
		h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}
