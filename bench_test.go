// Benchmarks regenerating every table and figure of the paper's evaluation
// at bench scale, plus ablations of the design choices DESIGN.md calls
// out. Each figure bench reports the domain metric the paper plots
// (labels-to-convergence, precision) via b.ReportMetric alongside wall
// time; cmd/experiments reproduces the same numbers at paper scale.
package viewseeker_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"viewseeker"
	"viewseeker/internal/active"
	"viewseeker/internal/core"
	"viewseeker/internal/dataset"
	"viewseeker/internal/exp"
	"viewseeker/internal/feature"
	"viewseeker/internal/ml"
	"viewseeker/internal/sim"
	"viewseeker/internal/sql"
	"viewseeker/internal/view"
)

// Bench-scale testbeds, built once and shared across benchmarks.
var (
	diabOnce sync.Once
	diabTB   *exp.Testbed
	synOnce  sync.Once
	synTB    *exp.Testbed
)

func benchDIAB(b *testing.B) *exp.Testbed {
	b.Helper()
	diabOnce.Do(func() {
		tb, err := exp.NewDIABTestbed(20_000, 1)
		if err != nil {
			panic(err)
		}
		diabTB = tb
	})
	return diabTB
}

func benchSYN(b *testing.B) *exp.Testbed {
	b.Helper()
	synOnce.Do(func() {
		tb, err := exp.NewSYNTestbed(50_000, 1)
		if err != nil {
			panic(err)
		}
		synTB = tb
	})
	return synTB
}

// runSession drives one simulated session and returns labels used.
func runSession(b *testing.B, tb *exp.Testbed, fn sim.IdealFunction, k int,
	criterion sim.StopCriterion, cfg core.Config, withRefinement bool,
	matrix *feature.Matrix) float64 {
	b.Helper()
	user, err := sim.NewUser(fn, tb.Exact)
	if err != nil {
		b.Fatal(err)
	}
	if matrix == nil {
		matrix = tb.Exact
	}
	cfg.K = k
	seeker, err := core.NewSeeker(matrix, cfg, withRefinement)
	if err != nil {
		b.Fatal(err)
	}
	res, err := (&sim.Runner{Seeker: seeker, User: user, K: k, MaxLabels: 100, Criterion: criterion}).Run()
	if err != nil {
		b.Fatal(err)
	}
	return float64(res.LabelsUsed)
}

// BenchmarkColdCreate measures one cold session create the way the server
// pays it: SYN 200k, an offline cache on, the reference hash precomputed,
// and a distinct hypercube query (two dimensions, ~1 % of the rows) per
// iteration, so every create misses the cache. Creates share the table's
// reference side as a server's creates over one hosted table do; the
// first one fits the layouts and scans DR, before the timer starts.
func BenchmarkColdCreate(b *testing.B) {
	table := dataset.GenerateSYN(dataset.SYNConfig{Rows: 200_000, Seed: 1})
	opts := viewseeker.Options{Cache: viewseeker.NewCache(64), RefHash: viewseeker.HashTable(table)}
	rng := rand.New(rand.NewSource(1))
	query := func() string {
		d := rng.Perm(5)
		x, y := rng.Float64()*0.9, rng.Float64()*0.9
		return fmt.Sprintf("SELECT * FROM syn WHERE d%d >= %.4f AND d%d < %.4f AND d%d >= %.4f AND d%d < %.4f",
			d[0]+1, x, d[0]+1, x+0.1, d[1]+1, y, d[1]+1, y+0.1)
	}
	if _, err := viewseeker.New(table, query(), opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := viewseeker.New(table, query(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if s.CacheHit() {
			b.Fatal("create hit the offline cache")
		}
	}
}

// BenchmarkTable1Testbed measures the offline phase that Table 1
// parameterises: generating DIAB and computing the exact utility-feature
// matrix for all 280 views.
func BenchmarkTable1Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := exp.NewDIABTestbed(10_000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if tb.Exact.Len() != 280 {
			b.Fatalf("view space = %d", tb.Exact.Len())
		}
	}
}

// BenchmarkTable2IdealFunctions measures evaluating all 11 simulated ideal
// utility functions over the full view space.
func BenchmarkTable2IdealFunctions(b *testing.B) {
	tb := benchDIAB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fn := range sim.IdealFunctions() {
			if _, err := fn.Scores(tb.Exact); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3DIABLabels regenerates one Figure 3 point: a DIAB session
// to 100% top-10 precision, averaged over the single-component u* group.
// The "labels" metric is the figure's y-axis.
func BenchmarkFig3DIABLabels(b *testing.B) {
	tb := benchDIAB(b)
	fns := sim.IdealFunctionsWithComponents(1)
	b.ResetTimer()
	total := 0.0
	for i := 0; i < b.N; i++ {
		for _, fn := range fns {
			total += runSession(b, tb, fn, 10, sim.StopAtFullPrecision, core.Config{}, false, nil)
		}
	}
	b.ReportMetric(total/float64(b.N*len(fns)), "labels")
}

// BenchmarkFig4SYNLabels regenerates one Figure 4 point on SYN.
func BenchmarkFig4SYNLabels(b *testing.B) {
	tb := benchSYN(b)
	fns := sim.IdealFunctionsWithComponents(1)
	b.ResetTimer()
	total := 0.0
	for i := 0; i < b.N; i++ {
		for _, fn := range fns {
			total += runSession(b, tb, fn, 10, sim.StopAtFullPrecision, core.Config{}, false, nil)
		}
	}
	b.ReportMetric(total/float64(b.N*len(fns)), "labels")
}

// BenchmarkFig5Baselines regenerates Figure 5: the single-feature baseline
// comparison against u* #11. The reported metrics are the figure's bars.
func BenchmarkFig5Baselines(b *testing.B) {
	tb := benchDIAB(b)
	fn := sim.IdealFunctions()[10]
	b.ResetTimer()
	var vs, best float64
	for i := 0; i < b.N; i++ {
		results, err := exp.BaselineComparison(tb, fn, 10)
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, r := range results {
			if r.Name == "ViewSeeker" {
				vs = r.Precision
			} else if r.Precision > best {
				best = r.Precision
			}
		}
	}
	b.ReportMetric(vs, "viewseeker-precision")
	b.ReportMetric(best, "best-baseline-precision")
}

// BenchmarkFig6Optimization regenerates one Figure 6 point: labels to
// UD = 0 with the α-sampling + incremental-refinement optimisation on
// versus off.
func BenchmarkFig6Optimization(b *testing.B) {
	tb := benchDIAB(b)
	fn := sim.IdealFunctionsWithComponents(1)[1] // 1.0*EMD
	b.Run("unoptimized", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			total += runSession(b, tb, fn, 10, sim.StopAtZeroUD, core.Config{}, false, nil)
		}
		b.ReportMetric(total/float64(b.N), "labels")
	})
	b.Run("optimized", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			labels, _ := coldRun(b, tb, fn, 0.1)
			total += float64(labels)
		}
		b.ReportMetric(total/float64(b.N), "labels")
	})
}

// BenchmarkFig7Runtime regenerates one Figure 7 point: total system
// runtime (a cold session's offline phase plus its session compute) to
// UD = 0, optimisation on versus off. Wall time per op is the figure's
// y-axis.
func BenchmarkFig7Runtime(b *testing.B) {
	tb := benchDIAB(b)
	fn := sim.IdealFunctionsWithComponents(1)[1]
	for _, c := range []struct {
		name  string
		alpha float64
	}{{"unoptimized", 1}, {"optimized", 0.1}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldRun(b, tb, fn, c.alpha)
			}
		})
	}
}

// coldRun is one Figure 6/7 measurement at k = 10 (exp.Testbed.ColdRun).
func coldRun(b *testing.B, tb *exp.Testbed, fn sim.IdealFunction, alpha float64) (int, time.Duration) {
	b.Helper()
	user, err := sim.NewUser(fn, tb.Exact)
	if err != nil {
		b.Fatal(err)
	}
	labels, elapsed, err := tb.ColdRun(user, 10, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return labels, elapsed
}

// BenchmarkAblationStrategies compares the main-phase query strategies on
// labels-to-precision: the uncertainty sampler the paper picked, random
// sampling, and query-by-committee.
func BenchmarkAblationStrategies(b *testing.B) {
	tb := benchDIAB(b)
	fn := sim.IdealFunctions()[3] // 0.5*EMD + 0.5*KL
	strategies := map[string]func() active.Strategy{
		"uncertainty": func() active.Strategy { return &active.Uncertainty{} },
		"random":      func() active.Strategy { return &active.Random{Seed: 1} },
		"committee":   func() active.Strategy { return &active.Committee{Seed: 1} },
		"density":     func() active.Strategy { return &active.DensityWeighted{} },
	}
	for name, mk := range strategies {
		b.Run(name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				total += runSession(b, tb, fn, 10, sim.StopAtFullPrecision,
					core.Config{Strategy: mk()}, false, nil)
			}
			b.ReportMetric(total/float64(b.N), "labels")
		})
	}
}

// BenchmarkAblationAlpha sweeps the optimisation's partial-data ratio.
func BenchmarkAblationAlpha(b *testing.B) {
	tb := benchDIAB(b)
	fn := sim.IdealFunctionsWithComponents(1)[1]
	for _, alpha := range []float64{0.05, 0.1, 0.25, 0.5} {
		name := map[float64]string{0.05: "alpha=5%", 0.1: "alpha=10%", 0.25: "alpha=25%", 0.5: "alpha=50%"}[alpha]
		b.Run(name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				labels, _ := coldRun(b, tb, fn, alpha)
				total += float64(labels)
			}
			b.ReportMetric(total/float64(b.N), "labels")
		})
	}
}

// BenchmarkAblationColdStart compares the per-feature cold-start seeding
// against a session whose cold start is replaced by pure random sampling
// (by configuring the main strategy as random AND labelling through it
// from the first iteration).
func BenchmarkAblationColdStart(b *testing.B) {
	tb := benchDIAB(b)
	fn := sim.IdealFunctions()[3]
	b.Run("feature-seeded", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			total += runSession(b, tb, fn, 10, sim.StopAtFullPrecision, core.Config{}, false, nil)
		}
		b.ReportMetric(total/float64(b.N), "labels")
	})
	b.Run("random-seeded", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			user, err := sim.NewUser(fn, tb.Exact)
			if err != nil {
				b.Fatal(err)
			}
			seeker, err := core.NewSeeker(tb.Exact, core.Config{K: 10}, false)
			if err != nil {
				b.Fatal(err)
			}
			// Random warm-up labels replace the cold-start walk, then the
			// normal loop takes over.
			rnd := &active.Random{Seed: int64(i + 1)}
			labels := 0
			for warm := 0; warm < 8; warm++ {
				pick, ok, err := rnd.Select(tb.Exact.Rows, nil, labeledOf(seeker))
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				if err := seeker.Feedback(pick, user.Label(pick)); err != nil {
					b.Fatal(err)
				}
				labels++
			}
			res, err := (&sim.Runner{Seeker: seeker, User: user, K: 10, MaxLabels: 92,
				Criterion: sim.StopAtFullPrecision}).Run()
			if err != nil {
				b.Fatal(err)
			}
			total += float64(labels + res.LabelsUsed)
		}
		b.ReportMetric(total/float64(b.N), "labels")
	})
}

func labeledOf(s *core.Seeker) map[int]float64 {
	idx, labels := s.Labels()
	out := make(map[int]float64, len(idx))
	for i, v := range idx {
		out[v] = labels[i]
	}
	return out
}

// BenchmarkAblationClassifierVsRegressor compares ViewSeeker's
// regression-based utility estimator against a classifier-only
// recommender in the style of the feedback-driven exploration baseline
// the paper's related work discusses ([3]): binary feedback trains a
// logistic classifier and views are ranked by p(interesting). The metric
// is the top-10 precision reached after a fixed 15-label budget.
func BenchmarkAblationClassifierVsRegressor(b *testing.B) {
	tb := benchDIAB(b)
	fn := sim.IdealFunctions()[3]
	const budget = 15
	b.Run("regressor", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			user, err := sim.NewUser(fn, tb.Exact)
			if err != nil {
				b.Fatal(err)
			}
			seeker, err := core.NewSeeker(tb.Exact, core.Config{K: 10}, false)
			if err != nil {
				b.Fatal(err)
			}
			res, err := (&sim.Runner{Seeker: seeker, User: user, K: 10,
				MaxLabels: budget, Criterion: sim.StopAtFullPrecision}).Run()
			if err != nil {
				b.Fatal(err)
			}
			total += res.FinalPrecision
		}
		b.ReportMetric(total/float64(b.N), "precision")
	})
	b.Run("classifier-only", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			user, err := sim.NewUser(fn, tb.Exact)
			if err != nil {
				b.Fatal(err)
			}
			precision, err := classifierOnlySession(tb, user, 10, budget, int64(i+1))
			if err != nil {
				b.Fatal(err)
			}
			total += precision
		}
		b.ReportMetric(total/float64(b.N), "precision")
	})
}

// classifierOnlySession runs the [3]-style baseline: uncertainty-sampled
// binary labels train a logistic classifier; the recommendation is the
// top-k by predicted class probability. The classifier is trained on the
// labelled rows in ascending index order (gradient descent is
// order-sensitive) and standardised by their own statistics.
func classifierOnlySession(tb *exp.Testbed, user *sim.User, k, budget int, seed int64) (float64, error) {
	rows := tb.Exact.Rows
	space, err := ml.FitScaler(rows)
	if err != nil {
		return 0, err
	}
	labeled := map[int]float64{}
	strategy := &active.Uncertainty{}
	cold := &active.ColdStart{Seed: seed}
	var model ml.LogisticRegression
	havePos, haveNeg := false, false
	for len(labeled) < budget {
		var v int
		var ok bool
		if !(havePos && haveNeg) {
			v, ok, err = cold.Select(rows, nil, labeled)
		} else {
			v, ok, err = strategy.Select(rows, space, labeled)
		}
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		labeled[v] = user.Label(v)
		if labeled[v] >= active.PositiveThreshold {
			havePos = true
		} else {
			haveNeg = true
		}
		var x [][]float64
		var y []float64
		for i, row := range rows {
			l, ok := labeled[i]
			if !ok {
				continue
			}
			x = append(x, row)
			if l >= active.PositiveThreshold {
				y = append(y, 1)
			} else {
				y = append(y, 0)
			}
		}
		labelledOnly, err := ml.FitScaler(x)
		if err != nil {
			return 0, err
		}
		if err := model.Fit(x, y, labelledOnly, nil); err != nil {
			return 0, err
		}
	}
	scores := make([]float64, len(rows))
	for i, row := range rows {
		scores[i] = model.Prob(row)
	}
	pred := sim.TopKByScore(scores, k)
	return sim.Precision(pred, user.Scores(), k)
}

func sqlCatalogFor(b *testing.B, tables ...*dataset.Table) *sql.Catalog {
	b.Helper()
	c := sql.NewCatalog()
	for _, t := range tables {
		c.Register(t)
	}
	return c
}

// BenchmarkAblationLabelNoise measures robustness to imperfect users:
// labels perturbed by Gaussian noise of increasing sigma, metric = best
// top-10 precision reached within a 25-label budget.
func BenchmarkAblationLabelNoise(b *testing.B) {
	tb := benchDIAB(b)
	fn := sim.IdealFunctions()[3]
	for _, sigma := range []float64{0, 0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("sigma=%.2f", sigma), func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				user, err := sim.NewUser(fn, tb.Exact)
				if err != nil {
					b.Fatal(err)
				}
				noisy, err := sim.NewNoisyUser(user, sigma, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				seeker, err := core.NewSeeker(tb.Exact, core.Config{K: 10}, false)
				if err != nil {
					b.Fatal(err)
				}
				res, err := (&sim.Runner{Seeker: seeker, User: noisy, K: 10,
					MaxLabels: 25, Criterion: sim.StopAtFullPrecision}).Run()
				if err != nil {
					b.Fatal(err)
				}
				total += res.FinalPrecision
			}
			b.ReportMetric(total/float64(b.N), "precision")
		})
	}
}

// BenchmarkSessionWarmStart measures the offline-result cache on the
// synthetic dataset: session creation cold (offline feature pass computed)
// versus warm (served from the shared cache, as the server does it: the
// reference table's content hash precomputed once at boot). A warm start
// skips the exploration query, the layout scans and the whole feature
// pass — the cold/warm wall-time ratio is the cache's speedup for a
// second user on the same (table, query).
func BenchmarkSessionWarmStart(b *testing.B) {
	table := dataset.GenerateSYN(dataset.SYNConfig{Rows: 50_000, Seed: 1})
	opts := viewseeker.Options{K: 10, BinCounts: []int{3, 4}}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := viewseeker.New(table, dataset.SYNQuery, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		warmOpts := opts
		warmOpts.Cache = viewseeker.NewCache(4)
		warmOpts.RefHash = viewseeker.HashTable(table)
		if _, err := viewseeker.New(table, dataset.SYNQuery, warmOpts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := viewseeker.New(table, dataset.SYNQuery, warmOpts)
			if err != nil {
				b.Fatal(err)
			}
			if !s.CacheHit() {
				b.Fatal("warm session missed the cache")
			}
		}
	})
}

// BenchmarkOfflineParallel measures the parallelised offline phase on the
// SYN testbed: the exact feature matrix for the whole view space computed
// with 1, 2, 4, and 8 workers. A generator over a cold reference version
// per iteration keeps the scan caches cold so each op pays the full
// offline cost. Before timing, it asserts the 8-worker matrix is
// bit-identical to the sequential one — parallelism must never change the
// numbers.
func BenchmarkOfflineParallel(b *testing.B) {
	tb := benchSYN(b)
	reg := feature.StandardRegistry()
	newGen := func() *view.Generator {
		ref, err := tb.ColdReference()
		if err != nil {
			b.Fatal(err)
		}
		gen, err := view.NewGenerator(ref, tb.Session.Target(), view.SpaceConfig{BinCounts: tb.Opts.BinCounts})
		if err != nil {
			b.Fatal(err)
		}
		return gen
	}
	seq, err := feature.ComputeWorkers(newGen(), reg, 1)
	if err != nil {
		b.Fatal(err)
	}
	par, err := feature.ComputeWorkers(newGen(), reg, 8)
	if err != nil {
		b.Fatal(err)
	}
	if seq.Len() != par.Len() {
		b.Fatalf("matrix sizes differ: %d vs %d", seq.Len(), par.Len())
	}
	for i := range seq.Rows {
		for j := range seq.Rows[i] {
			if seq.Rows[i][j] != par.Rows[i][j] {
				b.Fatalf("row %d feature %d: workers=1 %v != workers=8 %v",
					i, j, seq.Rows[i][j], par.Rows[i][j])
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gen := newGen()
				b.StartTimer()
				if _, err := feature.ComputeWorkers(gen, reg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveAppend measures the per-batch work of a live table: one
// 1,000-row append to SYN 200k (WAL write plus a new table version) and
// one Advance of a maintained SELECT * … WHERE query over it (the target
// suffix, the delta-extended bin indexes and statistics, and the feature
// matrix). B/op is the number to watch: a version that shares its
// parent's storage costs its batch, one that copies it costs the table.
// WAL fsyncs are batched out of the loop.
func BenchmarkLiveAppend(b *testing.B) {
	const rows, batchRows, batches = 200_000, 1000, 32
	base := dataset.GenerateSYN(dataset.SYNConfig{Rows: rows, Seed: 1})
	pool := dataset.GenerateSYN(dataset.SYNConfig{Rows: batches * batchRows, Seed: 2})
	pending := make([][][]dataset.Value, batches)
	for i := range pending {
		pending[i] = make([][]dataset.Value, batchRows)
		for r := range pending[i] {
			pending[i][r] = pool.Row(i*batchRows + r)
		}
	}
	lt, _, err := viewseeker.OpenLiveTableOptions(filepath.Join(b.TempDir(), "syn.wal"), base, viewseeker.LiveOptions{SyncEvery: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer lt.Close()
	m, err := viewseeker.Maintain(lt, dataset.SYNQuery, viewseeker.Options{K: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lt.Append(pending[i%batches]); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Advance(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint times one checkpoint of a 16,000-row suffix (16
// appends of 1,000 SYN rows, made outside the timer) over a SYN base of
// 200k and of 1M rows. A checkpoint persists the rows appended since the
// previous one as one segment, so B/op and the segment bytes it writes
// (seg-bytes/op) track the suffix and must not grow with the base. Run
// it with a fixed -benchtime (say 20x): each op appends 16,000 rows to
// the table.
func BenchmarkCheckpoint(b *testing.B) {
	const batchRows, batches = 1000, 16
	pool := dataset.GenerateSYN(dataset.SYNConfig{Rows: batches * batchRows, Seed: 2})
	pending := make([][][]dataset.Value, batches)
	for i := range pending {
		pending[i] = make([][]dataset.Value, batchRows)
		for r := range pending[i] {
			pending[i][r] = pool.Row(i*batchRows + r)
		}
	}
	for _, rows := range []int{200_000, 1_000_000} {
		b.Run(fmt.Sprintf("base=%d", rows), func(b *testing.B) {
			base := dataset.GenerateSYN(dataset.SYNConfig{Rows: rows, Seed: 1})
			path := filepath.Join(b.TempDir(), "syn.wal")
			lt, _, err := viewseeker.OpenLiveTableOptions(path, base, viewseeker.LiveOptions{SyncEvery: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer lt.Close()
			suffix := func() {
				for _, batch := range pending {
					if _, err := lt.Append(batch); err != nil {
						b.Fatal(err)
					}
				}
			}
			// The first checkpoint also hashes the base, once per table.
			suffix()
			if _, err := lt.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			before, err := os.Stat(path + ".seg")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				suffix()
				b.StartTimer()
				if _, err := lt.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after, err := os.Stat(path + ".seg")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(after.Size()-before.Size())/float64(b.N), "seg-bytes/op")
		})
	}
}
