// Customutility: extending ViewSeeker with user-defined utility
// components (Section 3.1: "users may customize the utility features,
// including adding new ones, for personalized analysis"). This example
// registers two custom features — a preference for views whose target
// subset is well-populated, and a preference for concentrated
// distributions — then runs a session for an analyst who likes exactly
// those properties, showing that the estimator learns compositions over
// custom features just as it does over the built-in eight.
package main

import (
	"fmt"
	"log"

	"viewseeker"
	"viewseeker/internal/dataset"
)

func main() {
	table := dataset.GenerateDIAB(dataset.DIABConfig{Rows: 15_000, Seed: 12})

	support := viewseeker.Feature{
		Name: "SUPPORT",
		// Fraction of the view's bins that actually hold target data:
		// views whose bars are mostly empty score low.
		Compute: func(p *viewseeker.Pair) (float64, error) {
			filled := 0
			for _, c := range p.Target.Counts {
				if c > 0 {
					filled++
				}
			}
			return float64(filled) / float64(p.Target.Bins()), nil
		},
	}
	concentration := viewseeker.Feature{
		Name: "CONCENTRATION",
		// Herfindahl index of the target distribution: 1 when all mass is
		// in one bar, 1/bins when flat.
		Compute: func(p *viewseeker.Pair) (float64, error) {
			h := 0.0
			for _, q := range p.Target.Distribution() {
				h += q * q
			}
			return h, nil
		},
	}

	s, err := viewseeker.New(table,
		"SELECT * FROM diab WHERE insulin = 'Up'",
		viewseeker.Options{K: 5, Seed: 4, ExtraFeatures: []viewseeker.Feature{support, concentration}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("features: %v\n\n", s.FeatureNames())

	// The analyst's hidden taste: 0.7·CONCENTRATION + 0.3·SUPPORT.
	taste := func(idx int) (float64, error) {
		p, err := s.Pair(idx)
		if err != nil {
			return 0, err
		}
		c, _ := concentration.Compute(p)
		sup, _ := support.Compute(p)
		return 0.7*c + 0.3*sup, nil
	}
	for i := 0; i < 14; i++ {
		v, ok, err := s.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		label, err := taste(v.Index)
		if err != nil {
			log.Fatal(err)
		}
		if label > 1 {
			label = 1
		}
		if err := s.Feedback(v.Index, label); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("top-5 views for a concentration-loving analyst:")
	for rank, v := range s.TopK() {
		p, err := s.Pair(v.Index)
		if err != nil {
			log.Fatal(err)
		}
		c, _ := concentration.Compute(p)
		fmt.Printf("%d. %-45s concentration %.2f\n", rank+1, v.Spec, c)
	}

	weights, _ := s.Weights()
	fmt.Println("\nlearned weights on the custom features:")
	fmt.Printf("  CONCENTRATION %+.4f\n", weights["CONCENTRATION"])
	fmt.Printf("  SUPPORT       %+.4f\n", weights["SUPPORT"])
	fmt.Println("\n(CONCENTRATION carries the dominant learned weight: the estimator picked up the hidden taste)")
}
