package exp

import (
	"bytes"
	"fmt"
	"testing"

	"viewseeker/internal/sim"
)

// TestPipelineDeterminism runs the same tiny experiment twice from scratch
// and requires byte-identical reports: the whole pipeline — generators,
// SQL, feature computation (including its concurrent warm-up), learners,
// selection — must be a pure function of its seeds.
func TestPipelineDeterminism(t *testing.T) {
	render := func() string {
		tb, err := NewDIABTestbed(4000, 77)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		curve, err := LabelsToFullPrecision(tb, 1, []int{5, 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := ReportEffort(&buf, "det", []*EffortCurve{curve}); err != nil {
			t.Fatal(err)
		}
		results, err := BaselineComparison(tb, sim.IdealFunctions()[10], 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := ReportBaselines(&buf, "u11", results); err != nil {
			t.Fatal(err)
		}
		// A fingerprint of the feature matrix itself.
		sum := 0.0
		for _, row := range tb.Exact.Rows {
			for _, v := range row {
				sum += v
			}
		}
		fmt.Fprintf(&buf, "matrix checksum: %.12g\n", sum)
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("pipeline is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestSeedSensitivity: different seeds must actually change the data (a
// stuck seed would silently undermine every averaged experiment).
func TestSeedSensitivity(t *testing.T) {
	tb1, err := NewDIABTestbed(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := NewDIABTestbed(2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range tb1.Exact.Rows {
		for j := range tb1.Exact.Rows[i] {
			if tb1.Exact.Rows[i][j] != tb2.Exact.Rows[i][j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical feature matrices")
	}
}

// TestPaperScaleSYNSoak exercises the full pipeline at a closer-to-paper
// SYN scale (300k rows, the full 250-view space, both bin configurations).
// Skipped under -short.
func TestPaperScaleSYNSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale soak skipped in short mode")
	}
	tb, err := NewSYNTestbed(300_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Session.NumViews() != 250 {
		t.Fatalf("view space = %d", tb.Session.NumViews())
	}
	ratio := float64(tb.Session.Target().NumRows()) / float64(tb.Ref.NumRows())
	if ratio < 0.003 || ratio > 0.008 {
		t.Errorf("DQ ratio = %.4f", ratio)
	}
	curve, err := LabelsToFullPrecision(tb, 1, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	if !curve.Converged {
		t.Errorf("paper-scale session did not converge: %.1f labels", curve.Labels[0])
	}
	if curve.Labels[0] > 30 {
		t.Errorf("labels = %.1f, want the paper's low-effort band", curve.Labels[0])
	}
}
