package active

import (
	"math/rand"
	"testing"
)

// TestUncertaintySelectDeterministic rebuilds the labelled map with many
// insertion orders and asserts the selection never changes: the logistic
// fit is order-sensitive, so Select must feed it the labels in sorted
// index order rather than map-iteration order.
func TestUncertaintySelectDeterministic(t *testing.T) {
	rows := twoClusterRows()
	scaler := spaceScaler(t, rows)
	pairs := [][2]float64{{0, 0.9}, {1, 0.8}, {5, 0.1}, {6, 0.2}, {2, 0.7}, {7, 0.3}}
	var want []int
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		labeled := make(map[int]float64)
		for _, j := range rng.Perm(len(pairs)) {
			labeled[int(pairs[j][0])] = pairs[j][1]
		}
		u := &Uncertainty{}
		got, err := u.Select(rows, scaler, labeled, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: selection size %d vs %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: selection %v differs from %v — training order leaked map randomness", trial, got, want)
			}
		}
	}
}
