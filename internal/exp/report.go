package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"viewseeker/internal/sim"
)

// writeTable renders an aligned text table.
func writeTable(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(headers))
		for i := range headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(headers)); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

// ReportTable1 prints the testbed parameters.
func ReportTable1(w io.Writer, rows []Table1Row) error {
	cells := make([][]string, len(rows))
	for i, r := range rows {
		cells[i] = []string{r.Parameter, r.Value}
	}
	fmt.Fprintln(w, "Table 1: Testbed Parameters")
	return writeTable(w, []string{"Parameter", "Value"}, cells)
}

// ReportTable2 prints the simulated ideal utility functions.
func ReportTable2(w io.Writer) error {
	fmt.Fprintln(w, "Table 2: Simulated Ideal Utility Functions")
	var cells [][]string
	for _, f := range sim.IdealFunctions() {
		cells = append(cells, []string{fmt.Sprint(f.ID), f.Name()})
	}
	return writeTable(w, []string{"#", "Involved utility features and weights"}, cells)
}

// ReportEffort prints one Figure 3/4 panel.
func ReportEffort(w io.Writer, figure string, curves []*EffortCurve) error {
	for _, c := range curves {
		fmt.Fprintf(w, "%s: labels to reach 100%% top-k precision — %s, %d-component u*()\n",
			figure, c.Dataset, c.Components)
		var cells [][]string
		for i, k := range c.Ks {
			cells = append(cells, []string{fmt.Sprint(k), fmt.Sprintf("%.1f", c.Labels[i])})
		}
		if err := writeTable(w, []string{"k", "labels"}, cells); err != nil {
			return err
		}
		if !c.Converged {
			fmt.Fprintln(w, "(warning: some sessions hit the label budget before full precision)")
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ReportBaselines prints the Figure 5 panel.
func ReportBaselines(w io.Writer, fnName string, results []BaselineResult) error {
	fmt.Fprintf(w, "Figure 5: precision vs single utility features (u*() = %s)\n", fnName)
	var cells [][]string
	for _, r := range results {
		cells = append(cells, []string{r.Name, fmt.Sprintf("%.2f", r.Precision)})
	}
	return writeTable(w, []string{"ranker", "precision"}, cells)
}

// ReportOptimization prints one Figure 6 + Figure 7 panel pair.
func ReportOptimization(w io.Writer, c *OptimizationCurve) error {
	fmt.Fprintf(w, "Figures 6/7: optimisation study — %s, %d-component u*(), alpha=%.0f%%\n",
		c.Dataset, c.Components, c.Alpha*100)
	var cells [][]string
	for _, p := range c.Points {
		cells = append(cells, []string{
			fmt.Sprint(p.K),
			fmt.Sprintf("%.1f", p.LabelsBaseline),
			fmt.Sprintf("%.1f", p.LabelsOptimized),
			p.TimeBaseline.Round(100 * time.Microsecond).String(),
			p.TimeOptimized.Round(100 * time.Microsecond).String(),
		})
	}
	return writeTable(w,
		[]string{"k", "labels (no opt)", "labels (opt)", "runtime (no opt)", "runtime (opt)"},
		cells)
}
