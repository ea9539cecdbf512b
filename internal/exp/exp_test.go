package exp

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"viewseeker/internal/sim"
)

// Test-scale testbeds: small row counts keep every experiment driver
// exercised end-to-end without paper-scale runtimes.
func testDIAB(t *testing.T) *Testbed {
	t.Helper()
	tb, err := NewDIABTestbed(6000, 31)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func testSYN(t *testing.T) *Testbed {
	t.Helper()
	tb, err := NewSYNTestbed(20_000, 32)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestTestbedShapes(t *testing.T) {
	diab := testDIAB(t)
	if got := diab.Session.NumViews(); got != 280 {
		t.Errorf("DIAB view space = %d, want 280", got)
	}
	if dq := diab.Session.Target().NumRows(); dq == 0 || dq >= diab.Ref.NumRows()/10 {
		t.Errorf("DQ size = %d of %d", dq, diab.Ref.NumRows())
	}
	if !diab.Exact.AllExact() {
		t.Error("testbed matrix must be exact")
	}
	syn := testSYN(t)
	if got := syn.Session.NumViews(); got != 250 {
		t.Errorf("SYN view space = %d, want 250", got)
	}
}

func TestTable1(t *testing.T) {
	diab, syn := testDIAB(t), testSYN(t)
	rows := Table1(diab, syn)
	if len(rows) < 10 {
		t.Fatalf("table 1 rows = %d", len(rows))
	}
	var buf bytes.Buffer
	if err := ReportTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"280", "250", "Linear regressor"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelsToFullPrecision(t *testing.T) {
	tb := testDIAB(t)
	curve, err := LabelsToFullPrecision(tb, 1, []int{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Labels) != 2 {
		t.Fatalf("curve points = %d", len(curve.Labels))
	}
	if !curve.Converged {
		t.Error("single-component sessions should converge at test scale")
	}
	// The headline claim: a handful of labels suffices (paper: 7–16).
	for i, l := range curve.Labels {
		if l < 2 || l > 40 {
			t.Errorf("k=%d needs %.1f labels, outside sane range", curve.Ks[i], l)
		}
	}
	if _, err := LabelsToFullPrecision(tb, 9, nil); err == nil {
		t.Error("unknown component count should fail")
	}
}

func TestBaselineComparison(t *testing.T) {
	tb := testDIAB(t)
	fn := sim.IdealFunctions()[10] // u* #11, the paper's Figure 5 target
	results, err := BaselineComparison(tb, fn, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 9 { // 8 features + ViewSeeker
		t.Fatalf("results = %d", len(results))
	}
	var vsPrec, bestBaseline float64
	for _, r := range results {
		if r.Name == "ViewSeeker" {
			vsPrec = r.Precision
		} else if r.Precision > bestBaseline {
			bestBaseline = r.Precision
		}
	}
	if vsPrec < 1 {
		t.Errorf("ViewSeeker precision = %v, want 1.0", vsPrec)
	}
	if bestBaseline >= vsPrec {
		t.Errorf("best single feature (%.2f) should lose to ViewSeeker (%.2f)", bestBaseline, vsPrec)
	}
	var buf bytes.Buffer
	if err := ReportBaselines(&buf, fn.Name(), results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ViewSeeker") {
		t.Error("report missing ViewSeeker row")
	}
}

func TestOptimizationStudy(t *testing.T) {
	tb := testDIAB(t)
	curve, err := OptimizationStudy(tb, 1, []int{5}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 1 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	p := curve.Points[0]
	if p.LabelsBaseline <= 0 || p.LabelsOptimized <= 0 {
		t.Errorf("labels: baseline=%v optimized=%v", p.LabelsBaseline, p.LabelsOptimized)
	}
	if p.TimeBaseline <= 0 || p.TimeOptimized <= 0 {
		t.Errorf("times: baseline=%v optimized=%v", p.TimeBaseline, p.TimeOptimized)
	}
	var buf bytes.Buffer
	if err := ReportOptimization(&buf, curve); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alpha=10%") {
		t.Errorf("report:\n%s", buf.String())
	}
}

func TestReportTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := ReportTable2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "0.3 * EMD + 0.3 * KL + 0.4 * ACCURACY") {
		t.Errorf("table 2 output missing u* #11:\n%s", out)
	}
}

func TestReportEffort(t *testing.T) {
	tb := testDIAB(t)
	curve, err := LabelsToFullPrecision(tb, 2, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ReportEffort(&buf, "Figure 3b", []*EffortCurve{curve}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2-component") {
		t.Errorf("report:\n%s", buf.String())
	}
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	err := writeTable(&buf, []string{"a", "long-header"}, [][]string{{"1", "2"}, {"333", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
}

func TestCSVOutputs(t *testing.T) {
	tb := testDIAB(t)
	dir := t.TempDir()

	curve, err := LabelsToFullPrecision(tb, 1, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	effortPath := dir + "/fig3.csv"
	if err := WriteEffortCSV(effortPath, []*EffortCurve{curve}); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, effortPath, "dataset,components,k,labels", 2)

	fn := sim.IdealFunctions()[10]
	results, err := BaselineComparison(tb, fn, 5)
	if err != nil {
		t.Fatal(err)
	}
	basePath := dir + "/fig5.csv"
	if err := WriteBaselinesCSV(basePath, fn.Name(), results); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, basePath, "ideal_function,ranker,precision", 10)

	opt, err := OptimizationStudy(tb, 1, []int{5}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	optPath := dir + "/fig67.csv"
	if err := WriteOptimizationCSV(optPath, opt); err != nil {
		t.Fatal(err)
	}
	assertCSV(t, optPath, "dataset,components,alpha,k,labels_baseline,labels_optimized,ms_baseline,ms_optimized", 2)
}

// assertCSV checks the file starts with the header and has the expected
// number of lines.
func assertCSV(t *testing.T, path, header string, lines int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(string(data)), "\n")
	if got[0] != header {
		t.Errorf("%s header = %q, want %q", path, got[0], header)
	}
	if len(got) != lines {
		t.Errorf("%s has %d lines, want %d", path, len(got), lines)
	}
}
