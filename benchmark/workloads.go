package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"viewseeker"
	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/sim"
	"viewseeker/internal/store"
	"viewseeker/internal/view"
)

// workload is one traffic mix against cmd/serve. Rates are pinned: each is
// about half the seed commit's goodput_sessions_per_s on the reference box
// (2 cores), measured once and written here, so a faster server shows up
// as lower latency and CPU at the same offered load rather than as a
// different experiment. See README.md for the calibration runs.
type workload struct {
	name string
	why  string

	table string // "syn" or "diab"
	rows  int
	alpha float64 // 0 = exact sessions
	k     int

	rate  float64       // new sessions per second, open loop
	iters int           // labels per new session
	think time.Duration // mean think time before each label

	// idealLabels labels views with u*#4 (0.5·EMD + 0.5·KL) over an exact
	// feature matrix the harness builds, and scores the final top-k
	// against it; otherwise labels are seeded draws (hashLabel).
	idealLabels bool
	// queries returns the workload's exploration queries; new session i
	// opens queries[i mod len]. warmup lists queries opened once before
	// the window (filling the caches a long-running server would have).
	queries func(seed int64) (queries, warmup []string)
	// oracleSessions picks which completed window sessions the oracle
	// replays in-process.
	oracleSessions func(ss []*sessionRun) []*sessionRun

	// Memory-budgeted serving (budget_churn).
	cacheDir    bool
	budgetBytes int64
	history     int // journalled sessions written before boot
	histLabels  int // labels per journalled session
	returnRate  float64
	returnIters int

	// Live appends (live_append).
	live            bool
	appendRate      float64
	appendRows      int
	preseed         int // batches appended through the API before the timed boots
	checkpointBytes int64
}

// synQuery is a hypercube over two of SYN's five uniform dimensions,
// placed at random, selecting about sel of the rows.
func synQuery(rng *rand.Rand, sel float64) string {
	perm := rng.Perm(5)
	side := math.Sqrt(sel)
	a, b := rng.Float64()*(1-side), rng.Float64()*(1-side)
	return fmt.Sprintf("SELECT * FROM syn WHERE d%d >= %.4f AND d%d < %.4f AND d%d >= %.4f AND d%d < %.4f",
		perm[0]+1, a, perm[0]+1, a+side, perm[1]+1, b, perm[1]+1, b+side)
}

// workloads are the benchmark's four traffic mixes, in BENCHMARK.json order.
var workloads = []*workload{
	{
		name:  "explore_cold",
		why:   "every create misses the offline cache, so SQL, bin/stats scans, feature fill and par fan-out sit on the critical path",
		table: "syn", rows: 200_000, k: 10,
		rate: 8, iters: 5, think: 100 * time.Millisecond,
		queries: func(seed int64) ([]string, []string) {
			// 240 distinct queries, far more than the 64-entry cache holds;
			// selectivities follow a golden-ratio sequence over 0.5–2 % so
			// any run of consecutive sessions sees the whole range evenly.
			rng := rngFor(seed, streamQueries)
			pool := make([]string, 240)
			for i := range pool {
				frac := math.Mod(float64(i)*0.6180339887498949, 1)
				pool[i] = synQuery(rng, 0.005+0.015*frac)
			}
			return pool, []string{synQuery(rng, 0.01), synQuery(rng, 0.01)}
		},
		oracleSessions: func(ss []*sessionRun) []*sessionRun { return every(ss, 20) },
	},
	{
		name:  "iterate_sampled",
		why:   "SYN 1M at alpha 0.1 with four shared queries: creates hit the cache, so select, refine and refit dominate; guards top-k quality",
		table: "syn", rows: 1_000_000, alpha: 0.1, k: 10,
		rate: 4, iters: 20, think: 100 * time.Millisecond,
		idealLabels: true,
		queries: func(seed int64) ([]string, []string) {
			rng := rngFor(seed, streamQueries)
			qs := make([]string, 4)
			for i := range qs {
				qs[i] = synQuery(rng, 0.01)
			}
			return qs, qs
		},
		oracleSessions: func(ss []*sessionRun) []*sessionRun { return spread(ss, 10) },
	},
	{
		name:  "budget_churn",
		why:   "a fixed session budget well under the active set: lazy restore, LRU eviction, journal-replay rehydration and journal appends dominate",
		table: "diab", rows: 20_000, k: 10,
		rate: 8, iters: 5, think: 100 * time.Millisecond,
		queries: func(int64) ([]string, []string) {
			qs := []string{
				"SELECT * FROM diab WHERE diag_group = 'diabetes'",
				"SELECT * FROM diab WHERE age_group = '[90-100)'",
				"SELECT * FROM diab WHERE insulin = 'Up'",
				"SELECT * FROM diab WHERE readmitted = '<30'",
			}
			return qs, qs
		},
		oracleSessions: func(ss []*sessionRun) []*sessionRun {
			var resumed []*sessionRun
			for _, s := range ss {
				if s.user.kind == kindReturning {
					resumed = append(resumed, s)
				}
			}
			return spread(resumed, 10)
		},
		cacheDir: true, budgetBytes: 3 << 18,
		history: 10_000, histLabels: 3,
		returnRate: 8, returnIters: 3,
	},
	{
		name:  "live_append",
		why:   "one writer appends beside readers on the same table: WAL fsync, MVCC publish, maintainer advances and checkpoints compete with iterations",
		table: "syn", rows: 200_000, k: 10,
		rate: 25, iters: 10, think: 100 * time.Millisecond,
		queries: func(seed int64) ([]string, []string) {
			rng := rngFor(seed, streamQueries)
			qs := []string{synQuery(rng, 0.01), synQuery(rng, 0.01)}
			return qs, qs
		},
		oracleSessions: func([]*sessionRun) []*sessionRun { return nil },
		live:           true, appendRate: 4, appendRows: 1000, preseed: 64,
		checkpointBytes: 2 << 20,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// every returns every nth session, starting with the first.
func every(ss []*sessionRun, n int) []*sessionRun {
	var out []*sessionRun
	for i := 0; i < len(ss); i += n {
		out = append(out, ss[i])
	}
	return out
}

// spread returns n sessions evenly spaced through ss (all of them when
// there are fewer).
func spread(ss []*sessionRun, n int) []*sessionRun {
	if len(ss) <= n {
		return ss
	}
	out := make([]*sessionRun, n)
	for i := range out {
		out[i] = ss[i*len(ss)/n]
	}
	return out
}

// inputs are the generated inputs of one run: the table (kept in memory
// for the oracle and the ideal utility), its CSV for the server, the
// queries, and any durable state the server boots from.
type inputs struct {
	table   *viewseeker.Table
	csv     string
	queries []string
	warmup  []string
	// ideal maps a query to its simulated user (idealLabels workloads).
	ideal map[string]*sim.User
	// specs is the view space in the order every session enumerates it.
	specs []string
	// history holds the journalled sessions (budget_churn).
	history []store.SessionLog
	// state is the pristine durable-state directory each pass copies:
	// the journal for budget_churn, the pre-seeded WAL for live_append.
	state string
	// preseedRows counts rows appended before the timed boots.
	preseedRows int
}

// prepare generates a run's inputs under dir from the seed. start boots a
// server for live_append's pre-seeding pass.
func prepare(w *workload, seed int64, dir string, start starter) (*inputs, error) {
	in := &inputs{}
	switch w.table {
	case "syn":
		in.table = dataset.GenerateSYN(dataset.SYNConfig{Rows: w.rows, Seed: seed})
	case "diab":
		in.table = dataset.GenerateDIAB(dataset.DIABConfig{Rows: w.rows, Seed: seed})
	default:
		return nil, fmt.Errorf("unknown table %q", w.table)
	}
	in.csv = filepath.Join(dir, w.table+".csv")
	if err := viewseeker.SaveCSVWithSchema(in.table, in.csv); err != nil {
		return nil, fmt.Errorf("writing %s: %w", in.csv, err)
	}
	in.queries, in.warmup = w.queries(seed)
	specs, err := view.Enumerate(in.table, view.SpaceConfig{}.Normalized())
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		in.specs = append(in.specs, s.String())
	}
	if w.idealLabels {
		if in.ideal, err = idealUsers(in.table, in.queries); err != nil {
			return nil, err
		}
	}
	if w.history == 0 && !w.live {
		return in, nil
	}
	in.state = filepath.Join(dir, "pristine")
	if err := os.MkdirAll(in.state, 0o755); err != nil {
		return nil, err
	}
	if w.history > 0 {
		if err := writeHistory(w, seed, in); err != nil {
			return nil, err
		}
	}
	if w.live {
		if err := preseed(w, seed, in, start); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// idealUsers builds, per query, the simulated user who labels by Table 2's
// u*#4 over the exact feature matrix.
func idealUsers(table *viewseeker.Table, queries []string) (map[string]*sim.User, error) {
	ideal := sim.IdealFunctions()[3]
	out := make(map[string]*sim.User, len(queries))
	for _, q := range queries {
		if out[q] != nil {
			continue
		}
		target, err := viewseeker.Query(table, q)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", q, err)
		}
		gen, err := view.NewGenerator(table, target, view.SpaceConfig{}.Normalized())
		if err != nil {
			return nil, err
		}
		m, err := feature.ComputeWorkers(gen, feature.StandardRegistry(), 0)
		if err != nil {
			return nil, err
		}
		if out[q], err = sim.NewUser(ideal, m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeHistory journals w.history past sessions through store.Journal, the
// same writer the server uses, so the server boots with them indexed cold.
func writeHistory(w *workload, seed int64, in *inputs) error {
	j, err := store.OpenJournal(filepath.Join(in.state, "journal.jsonl"))
	if err != nil {
		return err
	}
	for h := 0; h < w.history; h++ {
		u := userKey{kindReturning, phaseHistory, h}
		log := store.SessionLog{Create: store.Record{
			Op: store.OpCreate, Session: fmt.Sprintf("%016x", mix(seed, streamHistory, h, 0)),
			Table: w.table, Query: in.queries[h%len(in.queries)], K: w.k, Seed: sessionSeed(seed, u),
		}}
		for l := 0; l < w.histLabels; l++ {
			v := int(mix(seed, streamHistory, h, l+1) % uint64(len(in.specs)))
			log.Feedback = append(log.Feedback, store.Record{
				Op: store.OpFeedback, Session: log.Create.Session, View: v, Label: hashLabel(seed, u, v),
			})
		}
		for _, rec := range append([]store.Record{log.Create}, log.Feedback...) {
			if err := j.Append(rec); err != nil {
				j.Close()
				return err
			}
		}
		in.history = append(in.history, log)
	}
	return j.Close()
}

// sessionSeed is the create-time seed (cold start and strategy randomness)
// the harness gives user u's session.
func sessionSeed(seed int64, u userKey) int64 {
	return int64(mix(seed, streamPick, u.id(), 0)>>33) + 1
}

// preseed boots the server once on a fresh WAL directory, appends
// w.preseed batches through the append API, and stops it with SIGTERM:
// the timed boots then replay a real WAL history.
func preseed(w *workload, seed int64, in *inputs, start starter) error {
	srv, err := start(serverConfig{table: w.table, csv: in.csv, walDir: in.state, checkpointBytes: w.checkpointBytes})
	if err != nil {
		return fmt.Errorf("pre-seed boot: %w", err)
	}
	c := newClient(srv.base, 1)
	defer c.close()
	for b := 0; b < w.preseed; b++ {
		var ack appendAck
		if _, err := c.do("append", "POST", "/api/tables/"+w.table+"/append",
			appendBody(seed, phaseHistory, b, w.appendRows), time.Now(), phaseControl, &ack); err != nil {
			srv.stop()
			return fmt.Errorf("pre-seed append %d: %w", b, err)
		}
		in.preseedRows += ack.Rows
	}
	return srv.stop()
}

// appendAck is the append route's answer.
type appendAck struct {
	Seq  uint64 `json:"seq"`
	Rows int    `json:"rows"`
}

// appendBody is batch b of phase as an append request body: rows drawn
// like SYN's (five uniform dimensions in [0,1), five measures in [0,100)),
// so appends never drift out of the pinned bin layouts.
func appendBody(seed int64, phase, b, rows int) []byte {
	rng := rand.New(rand.NewSource(int64(mix(seed, streamRows, phase, b) >> 1)))
	buf := make([]byte, 0, rows*200)
	buf = append(buf, `{"rows":[`...)
	for r := 0; r < rows; r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for c := 0; c < 10; c++ {
			if c > 0 {
				buf = append(buf, ',')
			}
			v := rng.Float64()
			if c >= 5 {
				v *= 100
			}
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}

// copyState copies the pristine state directory (flat: journal, WAL,
// checkpoint files) into a fresh pass directory, so every pass boots from
// the same durable state.
func copyState(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	if from == "" {
		return nil
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copying state: %s is not a regular file", e.Name())
		}
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// topResponse is GET /api/sessions/{id}/top.
type topResponse struct {
	NumLabels int `json:"numLabels"`
	Top       []struct {
		Index int     `json:"index"`
		Spec  string  `json:"spec"`
		Score float64 `json:"score"`
	} `json:"top"`
}

// healthResponse is the part of GET /healthz the harness reads.
type healthResponse struct {
	SessionManager struct {
		ResidentBytes int64 `json:"residentBytes"`
		Resident      int   `json:"resident"`
	} `json:"sessionManager"`
	Live []struct {
		Seq           uint64 `json:"seq"`
		Rows          int    `json:"rows"`
		MaintainerLag uint64 `json:"maintainerLag"`
	} `json:"live"`
}
