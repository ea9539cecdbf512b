package active

import (
	"testing"
)

// TestCommitteeWarmChainDeterministic: the intra-Select warm-start chain
// must not disturb committee determinism — two committees with the same
// seed, driven identically, agree on every selection.
func TestCommitteeWarmChainDeterministic(t *testing.T) {
	rows := twoClusterRows()
	scaler := spaceScaler(t, rows)
	labeled := map[int]float64{0: 0.9, 1: 0.8, 5: 0.1, 6: 0.2}
	a := &Committee{Seed: 7}
	b := &Committee{Seed: 7}
	for step := 0; step < 3; step++ {
		ga, _, err := a.Select(rows, scaler, labeled)
		if err != nil {
			t.Fatal(err)
		}
		gb, _, err := b.Select(rows, scaler, labeled)
		if err != nil {
			t.Fatal(err)
		}
		if ga != gb {
			t.Fatalf("step %d: %d vs %d", step, ga, gb)
		}
		if ga < 5 {
			labeled[ga] = 0.8
		} else {
			labeled[ga] = 0.2
		}
	}
}
