package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.50, 10, false}, // 9 beyond the median
		{20, 0.50, 10, true},
		{99, 0.90, 90, false},
		{100, 0.90, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{39, 0.75, 30, false},
		{40, 0.75, 30, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("p%v of %d samples = %v, %v; want %v, %v", c.q*100, c.n, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("no samples cannot support a percentile")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	sp := func(name string, from, to int, kids ...*span) *span {
		return &span{Name: name, Start: at(from), Duration: int64(time.Duration(to-from) * time.Millisecond), Children: kids}
	}
	// Children [10,40] and [30,60] overlap (a par fan-out), [50,55] nests
	// inside the second, and [90,120] runs past the parent's end: covered
	// is [10,60] ∪ [90,100] = 60 ms of the parent's 100.
	root := sp("offline", 0, 100,
		sp("offline.query", 10, 40), sp("offline.warm", 30, 60), sp("offline.warm", 50, 55), sp("offline.features", 90, 120))
	if got := selfTime(root); got != 40*time.Millisecond {
		t.Fatalf("self time = %v, want 40ms", got)
	}
	if got := selfTime(sp("select", 0, 7)); got != 7*time.Millisecond {
		t.Fatalf("leaf self time = %v, want its duration", got)
	}
	st := collectSpans([]*span{root})
	if got := st.total("offline.warm"); got != 35 {
		t.Fatalf("total offline.warm = %v ms, want 35", got)
	}
	if got := st.self("offline"); got != 40 {
		t.Fatalf("summed offline self = %v ms, want 40", got)
	}
}

func TestAccessLogJoinsBothSlogFormats(t *testing.T) {
	l := &accessLog{}
	// The default slog handler (cmd/serve) and slog.TextHandler (tests),
	// split across writes the way a pipe delivers them.
	l.Write([]byte(`2026/10/16 00:25:00 INFO request id=b1 method=GET path=/api/sessions/ab/next route="GET /api/sessions/{id}/next" status=200 dur`))
	l.Write([]byte("ation=1.5ms\ntime=2026-10-16T00:25:00Z level=INFO msg=request id=b2 method=POST route=\"POST /api/sessions\" status=201 duration=52.25µs\nserve: unrelated line\n"))
	e, ok := l.entry("b1")
	if !ok || e.route != "GET /api/sessions/{id}/next" || e.status != 200 || e.duration != 1500*time.Microsecond {
		t.Fatalf("b1 = %+v, %v", e, ok)
	}
	e, ok = l.entry("b2")
	if !ok || e.route != "POST /api/sessions" || e.status != 201 || e.duration != 52250*time.Nanosecond {
		t.Fatalf("b2 = %+v, %v", e, ok)
	}
	if l.tail() != "serve: unrelated line" {
		t.Fatalf("tail = %q", l.tail())
	}
}
