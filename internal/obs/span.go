package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SpanData is one finished span: a named phase, its wall-clock start, its
// monotonic duration, the attributes set on it, and the child phases that
// ran inside it. It is the unit stored in the tracer ring and emitted as
// one JSON line per root span by the trace-log sink.
type SpanData struct {
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	Duration int64          `json:"duration_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanData    `json:"children,omitempty"`
}

// Span is one in-flight phase measurement. Spans come only from StartSpan;
// the nil span (what StartSpan yields without a tracer) ends for free.
// End must be called exactly once; children may End from other goroutines
// than their parent's (the offline phase fans out), so attachment is
// internally locked.
type Span struct {
	tracer *Tracer
	parent *Span
	data   *SpanData
	start  time.Time // carries the monotonic reading

	mu sync.Mutex // guards data.Children while children attach
}

// SetAttr records an attribute of the span (a table name, a row count),
// emitted with it. Call it before End, from the goroutine that owns the
// span. Nil-safe.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any)
	}
	s.data.Attrs[key] = v
}

// End stamps the span's duration from the monotonic clock and attaches it
// to its parent, or — for a root span — records it into the tracer's ring
// and sink. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.data.Duration = int64(time.Since(s.start))
	if s.parent != nil {
		s.parent.mu.Lock()
		s.parent.data.Children = append(s.parent.data.Children, s.data)
		s.parent.mu.Unlock()
		return
	}
	s.tracer.record(s.data)
}

// defaultRingSize bounds the recent-trace ring when NewTracer is given no
// size: enough to hold a burst of requests, small enough to never matter
// for memory.
const defaultRingSize = 64

// Tracer collects finished root spans into a fixed-size ring buffer and,
// optionally, streams each one as a JSON line to a sink. The nil tracer is
// a valid no-op. Safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	ring []*SpanData
	pos  int
	n    int
	sink io.Writer
}

// NewTracer returns a tracer keeping the most recent ringSize root traces
// (≤ 0 selects the default).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = defaultRingSize
	}
	return &Tracer{ring: make([]*SpanData, ringSize)}
}

// SetSink streams every finished root span to w as one JSON document per
// line (the -trace-log format). Pass nil to stop streaming. Writes happen
// under the tracer's lock, so w needs no extra synchronisation; a write
// error silently drops that trace (tracing must never fail the traced
// work).
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = w
	t.mu.Unlock()
}

func (t *Tracer) record(d *SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.pos] = d
	t.pos = (t.pos + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	sink := t.sink
	if sink != nil {
		if b, err := json.Marshal(d); err == nil {
			sink.Write(append(b, '\n'))
		}
	}
	t.mu.Unlock()
}

// Recent returns the retained root traces, most recent first. The slice is
// fresh; the *SpanData trees are shared and must be treated as read-only.
func (t *Tracer) Recent() []*SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*SpanData, 0, t.n)
	for i := 1; i <= t.n; i++ {
		out = append(out, t.ring[(t.pos-i+len(t.ring))%len(t.ring)])
	}
	return out
}
