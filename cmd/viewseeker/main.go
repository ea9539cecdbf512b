// Command viewseeker runs an interactive view-recommendation session in
// the terminal: it presents one view at a time as ASCII bar charts, reads
// a 0–1 interest label from stdin, and prints the current top-k after each
// iteration. With -simulate N the session is driven by the simulated user
// of the paper's Table 2 ideal utility function #N instead of stdin.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"viewseeker"
	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/sim"
)

func main() {
	var (
		csvPath   = flag.String("data", "", "CSV file to explore (otherwise use -dataset)")
		dims      = flag.String("dims", "", "comma-separated dimension columns (required with -data)")
		measures  = flag.String("measures", "", "comma-separated measure columns (required with -data)")
		gendata   = flag.String("dataset", "diab", "generated dataset when -data is absent: diab, syn or nba")
		rows      = flag.Int("rows", 20000, "rows for generated datasets")
		query     = flag.String("query", "", "SQL query selecting the exploration subset DQ (default: the dataset's canonical query)")
		k         = flag.Int("k", 5, "recommendation size")
		alpha     = flag.Float64("alpha", 1.0, "partial-data ratio for the offline feature pass (<1 enables incremental refinement)")
		workers   = flag.Int("workers", 0, "offline-phase and refinement parallelism (0 = all CPUs, 1 = sequential)")
		seed      = flag.Int64("seed", 1, "random seed")
		maxIters  = flag.Int("max-iters", 30, "maximum labelling iterations")
		simulateF = flag.Int("simulate", 0, "drive the session with Table 2 ideal utility function #N (1-11) instead of stdin")
		savePath  = flag.String("save", "", "write the session's labelling history to this JSON file on exit")
		loadPath  = flag.String("resume", "", "resume a session saved with -save (requires identical data flags)")
		chart     = flag.String("chart", "bar", "chart style for presented views: bar or line")
		cacheDir  = flag.String("cache-dir", "", "directory for offline-result snapshots: a rerun on the same data and query skips the offline feature pass")
	)
	flag.Parse()

	table, defaultQuery, err := loadTable(*csvPath, *dims, *measures, *gendata, *rows, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "viewseeker:", err)
		os.Exit(1)
	}
	if *query == "" {
		*query = defaultQuery
	}
	if *query == "" {
		fmt.Fprintln(os.Stderr, "viewseeker: -query is required for CSV data")
		os.Exit(1)
	}
	if *chart != "bar" && *chart != "line" {
		fmt.Fprintf(os.Stderr, "viewseeker: -chart must be bar or line, got %q\n", *chart)
		os.Exit(1)
	}
	if err := run(table, *query, *k, *alpha, *workers, *seed, *maxIters, *simulateF, *savePath, *loadPath, *chart, *cacheDir); err != nil {
		fmt.Fprintln(os.Stderr, "viewseeker:", err)
		os.Exit(1)
	}
}

func loadTable(csvPath, dims, measures, gendata string, rows int, seed int64) (*viewseeker.Table, string, error) {
	if csvPath != "" {
		t, err := viewseeker.LoadCSV(csvPath)
		if err != nil {
			return nil, "", err
		}
		if dims != "" || measures != "" {
			if err := viewseeker.AssignRoles(t, splitList(dims), splitList(measures)); err != nil {
				return nil, "", err
			}
		}
		if len(t.Schema.Dimensions()) == 0 || len(t.Schema.Measures()) == 0 {
			return nil, "", fmt.Errorf("no dimension/measure roles: pass -dims and -measures, or ship a .schema.json sidecar next to the CSV (cmd/datagen writes one)")
		}
		return t, "", nil
	}
	switch gendata {
	case "diab":
		return dataset.GenerateDIAB(dataset.DIABConfig{Rows: rows, Seed: seed}), dataset.DIABQuery, nil
	case "syn":
		return dataset.GenerateSYN(dataset.SYNConfig{Rows: rows, Seed: seed}), dataset.SYNQuery, nil
	case "nba":
		return dataset.GenerateNBA(dataset.NBAConfig{Rows: rows, Seed: seed, HotTeam: "GSW"}), dataset.NBAQueryFor("GSW"), nil
	default:
		return nil, "", fmt.Errorf("unknown dataset %q (want diab, syn or nba)", gendata)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(table *viewseeker.Table, query string, k int, alpha float64, workers int, seed int64, maxIters, simulate int, savePath, loadPath, chart, cacheDir string) error {
	opts := viewseeker.Options{K: k, Alpha: alpha, Seed: seed, Workers: workers}
	if cacheDir != "" {
		cache, err := viewseeker.OpenCache(cacheDir, 0)
		if err != nil {
			return err
		}
		opts.Cache = cache
	}
	s, err := viewseeker.New(table, query, opts)
	if err != nil {
		return err
	}
	if opts.Cache != nil {
		if s.CacheHit() {
			fmt.Println("Offline phase: served from cache")
		} else {
			fmt.Println("Offline phase: computed and cached")
		}
	}
	fmt.Printf("Exploring %q (%d rows), DQ = %q (%d rows)\n",
		table.Name, table.NumRows(), query, s.Target().NumRows())
	fmt.Printf("View space: %d views, %d utility features\n\n", s.NumViews(), len(s.FeatureNames()))
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return err
		}
		err = s.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("resuming session: %w", err)
		}
		fmt.Printf("Resumed session with %d labels from %s\n\n", s.NumLabels(), loadPath)
	}
	if savePath != "" {
		defer func() {
			f, err := os.Create(savePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "viewseeker: saving session:", err)
				return
			}
			defer f.Close()
			if err := s.Save(f); err != nil {
				fmt.Fprintln(os.Stderr, "viewseeker: saving session:", err)
				return
			}
			fmt.Printf("Session (%d labels) saved to %s\n", s.NumLabels(), savePath)
		}()
	}

	var user *sim.User
	if simulate > 0 {
		fns := sim.IdealFunctions()
		if simulate > len(fns) {
			return fmt.Errorf("-simulate must be 1..%d", len(fns))
		}
		// The simulated user judges views by exact features; build them
		// through a throwaway exact session when alpha < 1.
		exactSeeker := s
		if alpha < 1 {
			exactSeeker, err = viewseeker.New(table, query, viewseeker.Options{K: k, Seed: seed, Workers: workers})
			if err != nil {
				return err
			}
		}
		user, err = simulatedUser(exactSeeker, fns[simulate-1])
		if err != nil {
			return err
		}
		fmt.Printf("Simulated user: u*() = %s\n\n", fns[simulate-1].Name())
	}

	in := bufio.NewScanner(os.Stdin)
	for iter := 1; iter <= maxIters; iter++ {
		v, err := s.Next()
		if err != nil {
			fmt.Println("Every view has been labelled.")
			break
		}
		var rendering string
		if chart == "line" {
			p, err := s.Pair(v.Index)
			if err != nil {
				return err
			}
			rendering = p.RenderLine(0)
		} else {
			var err error
			rendering, err = s.Render(v.Index)
			if err != nil {
				return err
			}
		}
		fmt.Printf("--- iteration %d ---\n%s\n", iter, rendering)
		if why, err := s.Explain(v.Index, 2); err == nil && why != "" {
			fmt.Printf("what stands out:\n%s\n", why)
		}
		var label float64
		if user != nil {
			label = user.Label(v.Index)
			fmt.Printf("simulated label: %.2f\n", label)
		} else {
			label, err = askLabel(in)
			if err != nil {
				return err
			}
			if label < 0 {
				fmt.Println("Session ended by user.")
				break
			}
		}
		if err := s.Feedback(v.Index, label); err != nil {
			return err
		}
		fmt.Printf("\nTop-%d after %d labels:\n", k, s.NumLabels())
		for rank, tv := range s.TopK() {
			fmt.Printf("  %2d. %-40s score %.4f\n", rank+1, tv.Spec, tv.Score)
		}
		fmt.Println()
		if user != nil {
			pred := make([]int, 0, k)
			for _, tv := range s.TopK() {
				pred = append(pred, tv.Index)
			}
			p, err := sim.Precision(pred, user.Scores(), k)
			if err != nil {
				return err
			}
			fmt.Printf("top-%d precision vs u*: %.2f\n\n", k, p)
			if p >= 1 {
				fmt.Printf("Reached 100%% precision after %d labels.\n", s.NumLabels())
				break
			}
		}
	}

	w, intercept := s.Weights()
	if w != nil {
		fmt.Println("Learned utility function (Eq. 4):")
		for _, name := range s.FeatureNames() {
			fmt.Printf("  %-10s %+.4f\n", name, w[name])
		}
		fmt.Printf("  intercept  %+.4f\n", intercept)
	}
	return nil
}

// simulatedUser builds the ground-truth labeller from an exact session's
// feature rows.
func simulatedUser(s *viewseeker.Seeker, fn sim.IdealFunction) (*sim.User, error) {
	return sim.NewUser(fn, &feature.Matrix{Specs: s.Specs(), Names: s.FeatureNames(), Rows: s.FeatureRows()})
}

func askLabel(in *bufio.Scanner) (float64, error) {
	for {
		fmt.Print("How interesting is this view? [0.0-1.0, or q to stop] ")
		if !in.Scan() {
			return -1, nil
		}
		text := strings.TrimSpace(in.Text())
		if text == "q" || text == "quit" {
			return -1, nil
		}
		label, err := strconv.ParseFloat(text, 64)
		if err == nil && label >= 0 && label <= 1 {
			return label, nil
		}
		fmt.Println("please enter a number between 0 and 1")
	}
}
