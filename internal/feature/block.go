package feature

import (
	"fmt"

	"viewseeker/internal/metric"
	"viewseeker/internal/view"
)

// numStd is the length of the standard-eight feature prefix the block
// kernel computes directly from layout statistics.
const numStd = 8

// blockScratch holds the per-goroutine buffers one layout block reuses
// across its views: raw aggregate values and normalised distributions for
// both sides. Sized (and resized) to the layout's bin count.
type blockScratch struct {
	tgtVals, refVals []float64
	pDist, qDist     []float64
}

func (sc *blockScratch) resize(nb int) {
	if cap(sc.tgtVals) < nb {
		sc.tgtVals = make([]float64, nb)
		sc.refVals = make([]float64, nb)
		sc.pDist = make([]float64, nb)
		sc.qDist = make([]float64, nb)
	}
	sc.tgtVals = sc.tgtVals[:nb]
	sc.refVals = sc.refVals[:nb]
	sc.pDist = sc.pDist[:nb]
	sc.qDist = sc.qDist[:nb]
}

// measureBlock caches the per-measure constants of a layout block: the
// measure's stripe index on each side, its ACCURACY score (independent of
// the aggregate), and the target's total count for the χ² test.
type measureBlock struct {
	tmi, rmi int
	accuracy float64
	total    float64
}

// measureBlockFor computes one measure's block constants from the layout
// statistics, replaying the per-pair oracle's operation sequences: the
// accuracy from the target stripes and shift (metric.Accuracy on the same
// arrays a Histogram would copy), and the total as PValueScore's
// validating bin-order sum.
func measureBlockFor(rs, ts *view.Stats, measure string) (measureBlock, error) {
	mb := measureBlock{tmi: ts.MeasureIndex(measure), rmi: rs.MeasureIndex(measure)}
	if mb.tmi < 0 || mb.rmi < 0 {
		return mb, fmt.Errorf("feature: stats have no measure %q", measure)
	}
	nb := ts.Layout.NumBins()
	base := mb.tmi * nb
	counts := ts.Counts[base : base+nb]
	acc, err := metric.Accuracy(counts, ts.Sums[base:base+nb], ts.SumSqs[base:base+nb], ts.Shifts[mb.tmi])
	if err != nil {
		return mb, err
	}
	mb.accuracy = acc
	for _, c := range counts {
		if c < 0 {
			return mb, fmt.Errorf("metric: negative target count %g", c)
		}
		mb.total += c
	}
	return mb, nil
}

// fillBlockRows computes the feature rows of the given views — all drawn
// from one (dimension, bins) layout — directly from the layout's
// statistics, without materialising a Histogram or dispatching a closure
// per feature. Per-layout constants (USABILITY) and per-measure constants
// (ACCURACY, the target's total count) are computed once; per view only
// the aggregate extraction, one fused normalise+deviation pass, and the
// χ² score remain. Rows are bit-identical to Registry.Vector, the
// per-pair oracle the tests hold them to. That oracle takes its deviation
// columns from metric.DeviationsAll too, so it checks the distribution
// extraction, USABILITY, ACCURACY, the χ² score and the custom columns;
// the deviation arithmetic itself is pinned by metric's scalar oracle
// (TestDeviationsAllMatchesScalar).
//
// rows[j], the row of view idxs[j], must be pre-sized to the registry's
// length; the standard-eight prefix is written in place. Custom columns
// come from per-pair computation over a Histogram pair assembled from the
// same statistics.
func (r *Registry) fillBlockRows(rs, ts *view.Stats,
	specs []view.Spec, idxs []int, rows [][]float64, sc *blockScratch) error {
	nb := ts.Layout.NumBins()
	sc.resize(nb)
	usability, err := metric.Usability(nb)
	if err != nil {
		return fmt.Errorf("feature: computing %s for %s: %w", Usability, specs[idxs[0]], err)
	}
	blocks := make(map[string]measureBlock, len(ts.Measures))
	for j, i := range idxs {
		s := specs[i]
		mb, ok := blocks[s.Measure]
		if !ok {
			if mb, err = measureBlockFor(rs, ts, s.Measure); err != nil {
				return fmt.Errorf("feature: computing block for %s: %w", s, err)
			}
			blocks[s.Measure] = mb
		}
		if err := ts.ValuesInto(mb.tmi, s.Agg, sc.tgtVals); err != nil {
			return fmt.Errorf("feature: computing %s: %w", s, err)
		}
		if err := rs.ValuesInto(mb.rmi, s.Agg, sc.refVals); err != nil {
			return fmt.Errorf("feature: computing %s: %w", s, err)
		}
		if err := metric.NormalizeInto(sc.pDist, sc.tgtVals); err != nil {
			return fmt.Errorf("feature: computing %s: %w", s, err)
		}
		if err := metric.NormalizeInto(sc.qDist, sc.refVals); err != nil {
			return fmt.Errorf("feature: computing %s: %w", s, err)
		}
		row := rows[j]
		if err := metric.DeviationsAll(sc.pDist, sc.qDist, row[:metric.NumDeviations]); err != nil {
			return fmt.Errorf("feature: computing deviations for %s: %w", s, err)
		}
		row[5] = usability
		row[6] = mb.accuracy
		tbase := mb.tmi * nb
		pv, err := metric.PValueScoreN(ts.Counts[tbase:tbase+nb], mb.total, sc.qDist)
		if err != nil {
			return fmt.Errorf("feature: computing %s for %s: %w", PValue, s, err)
		}
		row[7] = pv
		if len(r.feats) > numStd {
			if err := r.customFromStats(s, rs, ts, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// customFromStats computes a registry's custom columns for one view,
// through the per-pair interface custom features are written against. The
// pair is assembled from the supplied layout statistics, so the features
// see exactly the histograms the per-pair path would build.
func (r *Registry) customFromStats(s view.Spec, rs, ts *view.Stats, row []float64) error {
	p, err := view.AssemblePair(s, rs, ts)
	if err != nil {
		return fmt.Errorf("feature: computing %s: %w", s, err)
	}
	for j := numStd; j < len(r.feats); j++ {
		f := r.feats[j]
		v, err := f.Compute(p)
		if err != nil {
			return fmt.Errorf("feature: computing %s for %s: %w", f.Name, s, err)
		}
		row[j] = v
	}
	return nil
}

// layoutGroups partitions spec indices by (dimension, bins) layout in
// first-seen order — the unit the block kernel processes at once.
func layoutGroups(specs []view.Spec) [][]int {
	type key struct {
		dim  string
		bins int
	}
	order := make(map[key]int)
	var groups [][]int
	for i, s := range specs {
		k := key{s.Dimension, s.Bins}
		gi, ok := order[k]
		if !ok {
			gi = len(groups)
			order[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}
