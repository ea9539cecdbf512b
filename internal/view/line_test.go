package view

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestTrendSlopeKnown(t *testing.T) {
	// Rising straight line: values 1..4 over 4 bins, mean 2.5, slope 1 →
	// normalised slope 1/2.5.
	h := &Histogram{Values: []float64{1, 2, 3, 4}, Labels: []string{"a", "b", "c", "d"}}
	if got := h.TrendSlope(); math.Abs(got-1/2.5) > 1e-12 {
		t.Errorf("slope = %v, want %v", got, 1/2.5)
	}
	// Flat: slope 0.
	flat := &Histogram{Values: []float64{3, 3, 3}}
	if got := flat.TrendSlope(); got != 0 {
		t.Errorf("flat slope = %v", got)
	}
	// Falling mirrors rising.
	down := &Histogram{Values: []float64{4, 3, 2, 1}}
	if got := down.TrendSlope(); math.Abs(got+1/2.5) > 1e-12 {
		t.Errorf("down slope = %v", got)
	}
	// Degenerate.
	if got := (&Histogram{Values: []float64{7}}).TrendSlope(); got != 0 {
		t.Errorf("single-bin slope = %v", got)
	}
	if got := (&Histogram{Values: []float64{0, 0}}).TrendSlope(); got != 0 {
		t.Errorf("all-zero slope = %v", got)
	}
}

func TestTrendSlopeScaleInvariant(t *testing.T) {
	a := &Histogram{Values: []float64{1, 2, 3, 4}}
	b := &Histogram{Values: []float64{10, 20, 30, 40}}
	if math.Abs(a.TrendSlope()-b.TrendSlope()) > 1e-12 {
		t.Errorf("normalised slope must be scale invariant: %v vs %v", a.TrendSlope(), b.TrendSlope())
	}
}

func TestRenderLine(t *testing.T) {
	p := &Pair{
		Spec: Spec{Dimension: "z", Measure: "m", Agg: "AVG", Bins: 4},
		Target: &Histogram{
			Labels: []string{"b1", "b2", "b3", "b4"},
			Values: []float64{1, 2, 3, 4},
		},
		Reference: &Histogram{
			Labels: []string{"b1", "b2", "b3", "b4"},
			Values: []float64{4, 3, 2, 1},
		},
	}
	out := p.RenderLine(8)
	if !strings.Contains(out, "T") || !strings.Contains(out, "R") {
		t.Errorf("line render missing series markers:\n%s", out)
	}
	if !strings.Contains(out, "(line)") {
		t.Errorf("missing title:\n%s", out)
	}
	// Equal values overlap as '*'.
	both := &Pair{
		Spec:      Spec{Dimension: "z", Measure: "m", Agg: "AVG"},
		Target:    &Histogram{Labels: []string{"x", "y"}, Values: []float64{1, 2}},
		Reference: &Histogram{Labels: []string{"x", "y"}, Values: []float64{1, 2}},
	}
	if out := both.RenderLine(5); !strings.Contains(out, "*") {
		t.Errorf("identical series should overlap:\n%s", out)
	}
}

func TestWarmMatchesLazy(t *testing.T) {
	g1 := benchLikeGenerator(t)
	g2 := benchLikeGenerator(t)
	if err := g1.WarmCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	// Warm twice is a no-op.
	if err := g1.WarmCtx(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	for _, spec := range g1.Specs() {
		p1, err := g1.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := g2.Pair(spec)
		if err != nil {
			t.Fatal(err)
		}
		for b := range p1.Target.Values {
			if p1.Target.Values[b] != p2.Target.Values[b] ||
				p1.Reference.Values[b] != p2.Reference.Values[b] {
				t.Fatalf("warm pair differs for %s", spec)
			}
		}
	}
}

func benchLikeGenerator(t *testing.T) *Generator {
	t.Helper()
	ref, tgt := demoTables(t)
	g, err := NewGenerator(ref, tgt, SpaceConfig{BinCounts: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRenderSVG(t *testing.T) {
	p := &Pair{
		Spec: Spec{Dimension: "race & co", Measure: "m", Agg: "AVG"},
		Target: &Histogram{
			Labels: []string{"short", "averyverylonglabel"},
			Values: []float64{3, 1},
		},
		Reference: &Histogram{
			Labels: []string{"short", "averyverylonglabel"},
			Values: []float64{2, 2},
		},
	}
	out := p.RenderSVG(400, 200)
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>") {
		t.Fatalf("not an svg document: %.60s...", out)
	}
	// 2 bins × 2 series + 2 legend swatches = 6 rects.
	if got := strings.Count(out, "<rect"); got != 6 {
		t.Errorf("rects = %d, want 6", got)
	}
	// The ampersand in the spec must be escaped.
	if strings.Contains(out, "race & co") || !strings.Contains(out, "race &amp; co") {
		t.Error("svg escaping failed")
	}
	// Long labels truncate with an ellipsis.
	if !strings.Contains(out, "…") {
		t.Error("long label not truncated")
	}
	// Zero-value and default-size pairs still render.
	flat := &Pair{
		Spec:      Spec{Dimension: "d", Measure: "m", Agg: "SUM"},
		Target:    &Histogram{Labels: []string{"x"}, Values: []float64{0}},
		Reference: &Histogram{Labels: []string{"x"}, Values: []float64{0}},
	}
	if out := flat.RenderSVG(0, 0); !strings.Contains(out, `width="640"`) {
		t.Error("default size not applied")
	}
}
