package active

import "viewseeker/internal/ml"

// ColdStart acquires the first positive and negative labels: it walks the
// utility features in order, each iteration presenting the unlabelled
// view ranked highest by the current feature; once every feature has had
// a turn it falls back to seeded random sampling (Section 3.2).
type ColdStart struct {
	// Seed drives the random fallback.
	Seed int64

	cursor   int
	fallback *Random
}

// Select implements Strategy; it ignores the scaler.
func (c *ColdStart) Select(rows [][]float64, _ *ml.Scaler, labeled map[int]float64) (int, bool, error) {
	if err := validateSelect(rows); err != nil {
		return 0, false, err
	}
	f := c.cursor
	if f >= len(rows[0]) {
		// Every feature has been tried: random sampling.
		if c.fallback == nil {
			c.fallback = &Random{Seed: c.Seed}
		}
		return c.fallback.Select(rows, nil, labeled)
	}
	idx, ok := best(len(rows), labeled, func(i int) float64 { return rows[i][f] })
	if ok {
		c.cursor++
	}
	return idx, ok, nil
}
