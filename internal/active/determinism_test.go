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
	want := -1
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		labeled := make(map[int]float64)
		for _, j := range rng.Perm(len(pairs)) {
			labeled[int(pairs[j][0])] = pairs[j][1]
		}
		u := &Uncertainty{}
		got, _, err := u.Select(rows, scaler, labeled)
		if err != nil {
			t.Fatal(err)
		}
		if want < 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("trial %d: selection %d differs from %d — training order leaked map randomness", trial, got, want)
		}
	}
}
