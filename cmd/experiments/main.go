// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5): Table 1 (testbed), Table 2 (ideal utility
// functions), Figures 3–4 (labels to 100% precision on DIAB and SYN),
// Figure 5 (single-feature baselines) and Figures 6–7 (the optimisation
// study). Row counts default to the paper's scales; -diab-rows/-syn-rows
// shrink them for quick runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"viewseeker/internal/exp"
	"viewseeker/internal/sim"
)

func main() {
	var (
		run      = flag.String("run", "all", "experiments to run: all, or comma list of table1,table2,fig3,fig4,fig5,fig6,fig7")
		diabRows = flag.Int("diab-rows", 100_000, "DIAB record count (Table 1: 100000)")
		synRows  = flag.Int("syn-rows", 1_000_000, "SYN record count (Table 1: 1000000)")
		seed     = flag.Int64("seed", 1, "generator seed")
		alpha    = flag.Float64("alpha", 0.1, "optimisation partial-data ratio (Table 1: 10%)")
		ks       = flag.String("ks", "5,10,15,20,25,30", "comma-separated k values")
		outDir   = flag.String("out", "", "also write machine-readable CSV series into this directory")
	)
	flag.Parse()
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]
	kList, err := parseKs(*ks)
	if err != nil {
		fatal(err)
	}

	needDIAB := all || want["table1"] || want["fig3"] || want["fig5"] || want["fig6"] || want["fig7"]
	needSYN := all || want["table1"] || want["fig4"]

	var diab, syn *exp.Testbed
	if needDIAB {
		fmt.Fprintf(os.Stderr, "building DIAB testbed (%d rows)...\n", *diabRows)
		diab, err = exp.NewDIABTestbed(*diabRows, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "DIAB offline phase: %v\n", diab.ExactBuild)
	}
	if needSYN {
		fmt.Fprintf(os.Stderr, "building SYN testbed (%d rows)...\n", *synRows)
		syn, err = exp.NewSYNTestbed(*synRows, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "SYN offline phase: %v\n", syn.ExactBuild)
	}

	if all || want["table1"] {
		if err := exp.ReportTable1(os.Stdout, exp.Table1(diab, syn)); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if all || want["table2"] {
		if err := exp.ReportTable2(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if all || want["fig3"] {
		if err := effortFigure("Figure 3", diab, kList, csvPath(*outDir, "fig3.csv")); err != nil {
			fatal(err)
		}
	}
	if all || want["fig4"] {
		if err := effortFigure("Figure 4", syn, kList, csvPath(*outDir, "fig4.csv")); err != nil {
			fatal(err)
		}
	}
	if all || want["fig5"] {
		fn := sim.IdealFunctions()[10] // u* #11
		results, err := exp.BaselineComparison(diab, fn, 10)
		if err != nil {
			fatal(err)
		}
		if err := exp.ReportBaselines(os.Stdout, fn.Name(), results); err != nil {
			fatal(err)
		}
		if p := csvPath(*outDir, "fig5.csv"); p != "" {
			if err := exp.WriteBaselinesCSV(p, fn.Name(), results); err != nil {
				fatal(err)
			}
		}
		fmt.Println()
	}
	if all || want["fig6"] || want["fig7"] {
		for _, components := range []int{1, 2, 3} {
			fmt.Fprintf(os.Stderr, "optimisation study: %d-component u*()...\n", components)
			curve, err := exp.OptimizationStudy(diab, components, kList, *alpha)
			if err != nil {
				fatal(err)
			}
			if err := exp.ReportOptimization(os.Stdout, curve); err != nil {
				fatal(err)
			}
			if p := csvPath(*outDir, fmt.Sprintf("fig67_%dcomp.csv", components)); p != "" {
				if err := exp.WriteOptimizationCSV(p, curve); err != nil {
					fatal(err)
				}
			}
			fmt.Println()
		}
	}
}

func csvPath(dir, name string) string {
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, name)
}

func effortFigure(name string, tb *exp.Testbed, ks []int, csvOut string) error {
	panels := []string{"a", "b", "c"}
	var curves []*exp.EffortCurve
	for components := 1; components <= 3; components++ {
		fmt.Fprintf(os.Stderr, "%s%s: %s, %d-component u*()...\n", name, panels[components-1], tb.Name, components)
		curve, err := exp.LabelsToFullPrecision(tb, components, ks)
		if err != nil {
			return err
		}
		curves = append(curves, curve)
		if err := exp.ReportEffort(os.Stdout, fmt.Sprintf("%s%s", name, panels[components-1]), []*exp.EffortCurve{curve}); err != nil {
			return err
		}
	}
	if csvOut != "" {
		return exp.WriteEffortCSV(csvOut, curves)
	}
	return nil
}

func parseKs(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		var k int
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &k); err != nil {
			return nil, fmt.Errorf("invalid k %q", p)
		}
		out = append(out, k)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
