// Diabetes: a full simulated user study on the DIAB testbed, mirroring the
// paper's Experiment 1 at example scale. A simulated analyst whose true
// interest is the composite utility function u* = 0.5·EMD + 0.5·KL labels
// views; the program reports how the top-k precision climbs per label,
// how many labels 100% precision took, and how closely the learned weights
// recover the analyst's hidden utility function.
package main

import (
	"fmt"
	"log"
	"strings"

	"viewseeker"
	"viewseeker/internal/exp"
	"viewseeker/internal/sim"
)

func main() {
	const k = 5
	tb, err := exp.NewDIABTestbed(20_000, 9)
	if err != nil {
		log.Fatal(err)
	}
	ideal := sim.IdealFunctions()[3] // u* #4: 0.5*EMD + 0.5*KL
	user, err := sim.NewUser(ideal, tb.Exact)
	if err != nil {
		log.Fatal(err)
	}
	seeker, err := tb.NewSession(k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("hidden ideal utility function: u*() = %s\n", ideal.Name())
	fmt.Printf("view space: %d views; target: 100%% top-%d precision\n\n", seeker.NumViews(), k)
	fmt.Println("label  view                                            given  precision")

	labels := 0
	for labels < 50 {
		v, ok, err := seeker.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		label := user.Label(v.Index)
		if err := seeker.Feedback(v.Index, label); err != nil {
			log.Fatal(err)
		}
		labels++
		precision, err := sim.Precision(indices(seeker.TopK()), user.Scores(), k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %-46s  %.2f   %s\n", labels, v.Spec, label, bar(precision))
		if precision >= 1 {
			break
		}
	}
	fmt.Printf("\nreached 100%% top-%d precision after %d labels (paper: 7-16 on average)\n\n", k, labels)

	// Compare the learned composition with the hidden one. The estimator
	// works on raw features while u* uses min-max-normalised ones, so we
	// compare the views they rank at the top instead of raw coefficients.
	fmt.Println("ideal top-5 vs recommended top-5:")
	idealTop := user.TopK(k)
	predTop := seeker.TopK()
	specs := seeker.Specs()
	for i := 0; i < k; i++ {
		marker := " "
		if contains(indices(predTop), idealTop[i]) {
			marker = "="
		}
		fmt.Printf("  %s ideal: %-44s  recommended: %s\n",
			marker, specs[idealTop[i]], predTop[i].Spec)
	}
}

func indices(vs []viewseeker.View) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.Index
	}
	return out
}

func bar(p float64) string {
	n := int(p * 20)
	return fmt.Sprintf("%-20s %3.0f%%", strings.Repeat("#", n), p*100)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
