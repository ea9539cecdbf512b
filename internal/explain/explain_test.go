package explain

import (
	"strings"
	"testing"

	"viewseeker/internal/view"
)

func pairOf(labels []string, tgtCounts, refCounts []float64) *view.Pair {
	mk := func(counts []float64) *view.Histogram {
		h := &view.Histogram{
			Labels: labels,
			Values: append([]float64(nil), counts...),
			Counts: append([]float64(nil), counts...),
			Sums:   make([]float64, len(counts)),
			SumSqs: make([]float64, len(counts)),
		}
		return h
	}
	return &view.Pair{
		Spec:      view.Spec{Dimension: "d", Measure: "m", Agg: "COUNT"},
		Target:    mk(tgtCounts),
		Reference: mk(refCounts),
	}
}

func kinds(fs []finding) map[kind]bool {
	out := map[kind]bool{}
	for _, f := range fs {
		out[f.kind] = true
	}
	return out
}

func TestExplainOutstandingBin(t *testing.T) {
	p := pairOf([]string{"a", "b", "c"}, []float64{80, 10, 10}, []float64{100, 100, 100})
	fs, err := explainPair(p)
	if err != nil {
		t.Fatal(err)
	}
	ks := kinds(fs)
	if !ks[kindOutstandingBin] {
		t.Errorf("expected outstanding-bin finding, got %+v", fs)
	}
	if !strings.Contains(fs[0].Message, "a") {
		t.Errorf("strongest finding should name bin a: %q", fs[0].Message)
	}
	// Findings are sorted by score.
	for i := 1; i < len(fs); i++ {
		if fs[i-1].Score < fs[i].Score {
			t.Error("findings not sorted by score")
		}
	}
}

func TestExplainMissingBin(t *testing.T) {
	p := pairOf([]string{"a", "b"}, []float64{50, 0}, []float64{50, 50})
	fs, err := explainPair(p)
	if err != nil {
		t.Fatal(err)
	}
	if !kinds(fs)[kindMissingBin] {
		t.Errorf("expected missing-bin finding, got %+v", fs)
	}
}

func TestExplainTrendReversal(t *testing.T) {
	p := pairOf([]string{"q1", "q2", "q3", "q4"},
		[]float64{10, 20, 30, 40}, // rising
		[]float64{40, 30, 20, 10}) // falling
	fs, err := explainPair(p)
	if err != nil {
		t.Fatal(err)
	}
	if !kinds(fs)[kindTrendReversal] {
		t.Errorf("expected trend-reversal finding, got %+v", fs)
	}
	for _, f := range fs {
		if f.kind == kindTrendReversal && !strings.Contains(f.Message, "rises") {
			t.Errorf("trend message = %q", f.Message)
		}
	}
}

func TestExplainSignificance(t *testing.T) {
	// Big counts with a clear skew: significant.
	p := pairOf([]string{"a", "b"}, []float64{900, 100}, []float64{500, 500})
	fs, err := explainPair(p)
	if err != nil {
		t.Fatal(err)
	}
	if !kinds(fs)[kindSignificance] {
		t.Errorf("expected significance finding, got %+v", fs)
	}
}

func TestExplainConcentration(t *testing.T) {
	p := pairOf([]string{"a", "b", "c", "d"}, []float64{70, 10, 10, 10}, []float64{25, 25, 25, 25})
	fs, err := explainPair(p)
	if err != nil {
		t.Fatal(err)
	}
	if !kinds(fs)[kindConcentration] {
		t.Errorf("expected concentration finding, got %+v", fs)
	}
}

func TestExplainNothingNotable(t *testing.T) {
	p := pairOf([]string{"a", "b"}, []float64{51, 49}, []float64{50, 50})
	fs, err := explainPair(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].kind != kindNothingNotable {
		t.Errorf("expected only nothing-notable, got %+v", fs)
	}
}

func TestExplainValidates(t *testing.T) {
	bad := &view.Pair{
		Target:    &view.Histogram{Values: []float64{1}},
		Reference: &view.Histogram{Values: []float64{1, 2}},
	}
	if _, err := explainPair(bad); err == nil {
		t.Error("mismatched pair should fail")
	}
}

func TestSummarize(t *testing.T) {
	p := pairOf([]string{"a", "b"}, []float64{900, 100}, []float64{500, 500})
	s, err := Summarize(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) == 0 || len(lines) > 2 {
		t.Fatalf("summary lines = %d:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "- ") {
		t.Errorf("summary format: %q", lines[0])
	}
	// max <= 0 means all findings.
	all, err := Summarize(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < len(s) {
		t.Error("max=0 should include every finding")
	}
}
