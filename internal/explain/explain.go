package explain

import (
	"fmt"
	"math"
	"sort"

	"viewseeker/internal/metric"
	"viewseeker/internal/view"
)

// kind classifies a finding.
type kind string

// The finding kinds, roughly ordered by how specific they are.
const (
	kindOutstandingBin kind = "outstanding-bin" // one bar carries the deviation
	kindMissingBin     kind = "missing-bin"     // the subset is absent where the population is not
	kindTrendReversal  kind = "trend-reversal"  // subset trends against the population
	kindSignificance   kind = "significance"    // χ² test verdict on the whole view
	kindConcentration  kind = "concentration"   // subset mass concentrated in few bars
	kindNothingNotable kind = "nothing-notable" // the view looks like the population
)

// finding is one explanation, scored for ranking (higher = stronger).
type finding struct {
	kind    kind
	Score   float64
	Message string
}

// explainPair inspects a pair and returns findings sorted strongest-first.
// It never returns an empty slice: when nothing stands out it says so.
func explainPair(p *view.Pair) ([]finding, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tgt := p.Target.Distribution()
	ref := p.Reference.Distribution()
	var out []finding

	// Outstanding and missing bins.
	type binDiff struct {
		idx  int
		diff float64
	}
	var diffs []binDiff
	for i := range tgt {
		diffs = append(diffs, binDiff{i, tgt[i] - ref[i]})
	}
	sort.Slice(diffs, func(a, b int) bool {
		return math.Abs(diffs[a].diff) > math.Abs(diffs[b].diff)
	})
	if top := diffs[0]; math.Abs(top.diff) >= 0.15 {
		direction := "over-represented"
		if top.diff < 0 {
			direction = "under-represented"
		}
		out = append(out, finding{
			kind:  kindOutstandingBin,
			Score: math.Abs(top.diff),
			Message: fmt.Sprintf("%s is strongly %s in the subset: it carries %.0f%% of the chart's total vs %.0f%% on the reference side",
				p.Target.Labels[top.idx], direction, tgt[top.idx]*100, ref[top.idx]*100),
		})
	}
	for i := range tgt {
		if p.Target.Counts[i] == 0 && ref[i] >= 0.1 {
			out = append(out, finding{
				kind:  kindMissingBin,
				Score: ref[i],
				Message: fmt.Sprintf("the subset has no data at all in %s, which carries %.0f%% of the reference chart",
					p.Target.Labels[i], ref[i]*100),
			})
		}
	}

	// Trend reversal (meaningful for ordered bins; harmless elsewhere).
	tSlope, rSlope := p.Target.TrendSlope(), p.Reference.TrendSlope()
	if tSlope*rSlope < 0 && math.Abs(tSlope-rSlope) >= 0.1 {
		dir := "rises"
		opp := "falls"
		if tSlope < 0 {
			dir, opp = opp, dir
		}
		out = append(out, finding{
			kind:  kindTrendReversal,
			Score: math.Abs(tSlope - rSlope),
			Message: fmt.Sprintf("across the bins the subset %s where the population %s (normalised slopes %+.2f vs %+.2f)",
				dir, opp, tSlope, rSlope),
		})
	}

	// Statistical significance of the overall deviation.
	pScore, err := metric.PValueScore(p.Target.Counts, ref)
	if err != nil {
		return nil, err
	}
	if pScore >= 0.95 {
		out = append(out, finding{
			kind:  kindSignificance,
			Score: pScore - 0.9,
			Message: fmt.Sprintf("the deviation is statistically significant (p < %.3g under a χ² test against the population distribution)",
				1-pScore+1e-3),
		})
	}

	// Concentration: more than half the subset's mass in one bar while the
	// population spreads out.
	maxT, maxIdx := 0.0, 0
	for i, v := range tgt {
		if v > maxT {
			maxT, maxIdx = v, i
		}
	}
	if maxT >= 0.5 && ref[maxIdx] <= maxT/2 {
		out = append(out, finding{
			kind:  kindConcentration,
			Score: maxT - ref[maxIdx],
			Message: fmt.Sprintf("over half the subset (%.0f%%) falls in %s alone",
				maxT*100, p.Target.Labels[maxIdx]),
		})
	}

	if len(out) == 0 {
		l1, err := metric.L1(tgt, ref)
		if err != nil {
			return nil, err
		}
		out = append(out, finding{
			kind:    kindNothingNotable,
			Score:   0,
			Message: fmt.Sprintf("the subset closely follows the population on this view (L1 distance %.3f)", l1),
		})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out, nil
}

// Summarize renders the strongest findings (up to max) as a bulleted
// plain-text block.
func Summarize(p *view.Pair, max int) (string, error) {
	findings, err := explainPair(p)
	if err != nil {
		return "", err
	}
	if max <= 0 || max > len(findings) {
		max = len(findings)
	}
	s := ""
	for _, f := range findings[:max] {
		s += "- " + f.Message + "\n"
	}
	return s, nil
}
