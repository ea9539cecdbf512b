package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json the harness reads: the workloads and
// the metrics every run reports, with each end-to-end metric's direction
// and regression bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// compareReports applies BENCHMARK.json's bounds to two sets of -o
// reports (each argument a comma-separated list of files), per
// end-to-end metric and per workload. A pair regresses when b's median is
// worse than a's by more than the bound. It is unresolved when either
// side's spread (interquartile range over median) is wider than the bound,
// unless every run of b reads better than every run of a; with fewer than
// four runs a side's spread is unknown, so a change beyond the bound is
// unresolved rather than a regression. Returns the exit status: 0 when
// every pair passes.
func compareReports(sp *spec, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: -compare a.json[,a2.json...] b.json[,b2.json...]")
		return 2
	}
	a, err := loadReports(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadReports(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	status := 0
	fmt.Printf("%-16s %-20s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "a median", "spread", "b median", "spread", "change", "bound", "verdict")
	for _, w := range sp.Workloads {
		for _, ms := range sp.EndToEnd {
			va, vb := values(a, w.Name, ms.Name), values(b, w.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spreadOf(va), spreadOf(vb)
			sign := 1.0
			if ms.Better == "higher" {
				sign = -1
			}
			worse := sign * ratio(mb-ma, ma)
			known := len(va) >= 4 && len(vb) >= 4
			verdict := "pass"
			switch {
			case allBetter(va, vb, sign):
			case known && (sa > ms.Bound || sb > ms.Bound):
				verdict = "unresolved"
			case worse > ms.Bound && known:
				verdict = "regressed"
			case worse > ms.Bound:
				verdict = "unresolved"
			}
			if verdict != "pass" {
				status = 1
			}
			fmt.Printf("%-16s %-20s %12.4f %7s %12.4f %7s %+7.1f%% %5.0f%%  %s\n",
				w.Name, ms.Name, ma, pctOrNA(sa, len(va)), mb, pctOrNA(sb, len(vb)), ratio(mb-ma, ma)*100, ms.Bound*100, verdict)
		}
	}
	return status
}

// allBetter reports whether every b value is better than every a value
// (sign 1: lower is better, -1: higher is better).
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

func pctOrNA(spread float64, n int) string {
	if n < 4 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", spread*100)
}

func loadReports(list string) ([]*report, error) {
	var out []*report
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// values collects one metric of one workload across reports.
func values(reps []*report, workload, name string) []float64 {
	var out []float64
	for _, r := range reps {
		if res := r.Workloads[workload]; res != nil {
			if m, ok := res.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// spreadOf is the interquartile range over the median.
func spreadOf(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}
