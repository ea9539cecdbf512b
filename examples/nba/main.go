// NBA: the paper's motivating example (Figure 1). An analyst wants to know
// why the selected team won a championship. ViewSeeker explores the
// player-game dataset, and after a few deviation-guided labels it surfaces
// the view comparing the team's 3-point attempt rate with the league —
// the insight the introduction builds the whole system around.
package main

import (
	"fmt"
	"log"
	"strings"

	"viewseeker"
	"viewseeker/internal/dataset"
)

func main() {
	const team = "GSW"
	table := dataset.GenerateNBA(dataset.NBAConfig{Rows: 30_000, Seed: 3, HotTeam: team})
	s, err := viewseeker.New(table, dataset.NBAQueryFor(team), viewseeker.Options{K: 3, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("why did %s win? exploring %d candidate views of %d player-game records\n\n",
		team, s.NumViews(), table.NumRows())

	// The analyst reacts to what they see, and the reactions carry taste,
	// not just deviation: views grouped BY team are self-evident (all of
	// DQ's mass sits in the GSW bar), and MIN/MAX bars are sampling noise
	// for per-game stats — both get rejected despite their formal
	// deviation scores. Everything else is rated by how far the team's
	// profile diverges from the league's. This negative feedback is
	// exactly what ViewSeeker exists to learn.
	for i := 0; i < 15; i++ {
		v, ok, err := s.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		label := 0.05
		if v.Spec.Dimension != "team" && v.Spec.Agg != "MIN" && v.Spec.Agg != "MAX" {
			p, err := s.Pair(v.Index)
			if err != nil {
				log.Fatal(err)
			}
			label = 4 * maxDiff(p.Target.Distribution(), p.Reference.Distribution())
			if label > 1 {
				label = 1
			}
		}
		if err := s.Feedback(v.Index, label); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("top insights:")
	for rank, v := range s.TopK() {
		fmt.Printf("%d. %s (score %.3f)\n", rank+1, v.Spec, v.Score)
	}

	// Find the 3-point view among the recommendations and render it.
	for _, v := range s.TopK() {
		if strings.Contains(v.Spec.Measure, "three_pt") {
			rendering, err := s.Render(v.Index)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nthe Figure 1 insight — %s shoots far more threes than the league:\n\n%s\n", team, rendering)
			return
		}
	}
	fmt.Println("\n(no 3-point view in the top-k this session — try more iterations)")
}

func maxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
