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
		ga, err := a.Select(rows, scaler, labeled, 2)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := b.Select(rows, scaler, labeled, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(ga) != len(gb) {
			t.Fatalf("step %d: %v vs %v", step, ga, gb)
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("step %d: %v vs %v", step, ga, gb)
			}
		}
		for _, v := range ga {
			if v < 5 {
				labeled[v] = 0.8
			} else {
				labeled[v] = 0.2
			}
		}
	}
}
