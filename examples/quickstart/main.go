// Quickstart: the smallest complete ViewSeeker session. It generates a
// diabetic-patients dataset, carves out an exploration subset with SQL,
// and runs a short interactive loop in which a scripted "user" who cares
// about deviation labels the presented views. After a handful of labels
// the top recommendations surface the views where the subset's
// distribution diverges most from the whole dataset — the paper's
// Figure 2 target/reference comparison, rendered in ASCII.
package main

import (
	"fmt"
	"log"

	"viewseeker"
	"viewseeker/internal/dataset"
)

func main() {
	// 1. Load data. Any CSV works via viewseeker.LoadCSV + AssignRoles;
	// here we use the bundled generator so the example is self-contained.
	table := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 20_000, Seed: 7})

	// 2. Start a session: the query selects the records the analyst is
	// digging into (elderly diabetic patients), the options ask for the
	// top 5 views.
	s, err := viewseeker.New(table,
		"SELECT * FROM diab WHERE diag_group = 'diabetes' AND age_group = '[90-100)'",
		viewseeker.Options{K: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("view space: %d candidate views over %d rows (DQ: %d rows)\n\n",
		s.NumViews(), table.NumRows(), s.Target().NumRows())

	// 3. Interactive loop. A real application would show s.Render(v.Index)
	// to a person; this scripted user rates each view by how far the
	// target histogram deviates from the reference (L1 distance).
	for i := 0; i < 10; i++ {
		v, ok, err := s.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		p, err := s.Pair(v.Index)
		if err != nil {
			log.Fatal(err)
		}
		label := l1(p.Target.Distribution(), p.Reference.Distribution()) / 2 // L1 ≤ 2
		if err := s.Feedback(v.Index, label); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("iteration %2d: labelled %-45s with %.2f\n", i+1, v.Spec, label)
	}

	// 4. Recommendations: the learned utility function's top-5 views.
	fmt.Println("\ntop-5 recommended views:")
	for rank, v := range s.TopK() {
		fmt.Printf("%d. %s (score %.3f)\n", rank+1, v.Spec, v.Score)
	}

	// 5. Show the best view the way the paper's Figure 2 does.
	best := s.TopK()[0]
	rendering, err := s.Render(best.Index)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s\n", rendering)

	// 6. The discovered utility function (Eq. 4).
	weights, intercept := s.Weights()
	fmt.Println("learned utility function:")
	for _, name := range s.FeatureNames() {
		fmt.Printf("  %-10s %+.4f\n", name, weights[name])
	}
	fmt.Printf("  intercept  %+.4f\n", intercept)
}

func l1(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}
