package exp

import (
	"fmt"
	"time"

	"viewseeker"
	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/sim"
	"viewseeker/internal/view"
)

// Testbed bundles one dataset configuration: the reference table DR, the
// query that carves DQ, the session options that shape its view space,
// one exact session over them and that session's feature matrix — the
// ground truth simulated users judge views by.
type Testbed struct {
	Name  string
	Ref   *dataset.Table
	Query string
	// Opts carries the view-space configuration (SYN: BinCounts {3, 4});
	// every session the testbed opens starts from it.
	Opts viewseeker.Options
	// Session is the exact session whose offline pass built Exact.
	Session *viewseeker.Seeker
	// Exact is Session's feature matrix, for sim.NewUser and core-level
	// ablations.
	Exact *feature.Matrix
	// ExactBuild is how long Session's offline phase took (query included).
	ExactBuild time.Duration

	cache   *viewseeker.Cache
	refHash string
}

// NewDIABTestbed builds the diabetic-patients testbed. rows ≤ 0 uses the
// paper's 100k scale.
func NewDIABTestbed(rows int, seed int64) (*Testbed, error) {
	cfg := dataset.DefaultDIABConfig()
	if rows > 0 {
		cfg.Rows = rows
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	ref := dataset.GenerateDIAB(cfg)
	return newTestbed("DIAB", ref, dataset.DIABQuery, viewseeker.Options{})
}

// NewSYNTestbed builds the synthetic testbed with its two bin
// configurations. rows ≤ 0 uses the paper's 1M scale.
func NewSYNTestbed(rows int, seed int64) (*Testbed, error) {
	cfg := dataset.DefaultSYNConfig()
	if rows > 0 {
		cfg.Rows = rows
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	ref := dataset.GenerateSYN(cfg)
	return newTestbed("SYN", ref, dataset.SYNQuery, viewseeker.Options{BinCounts: []int{3, 4}})
}

func newTestbed(name string, ref *dataset.Table, query string, opts viewseeker.Options) (*Testbed, error) {
	tb := &Testbed{Name: name, Ref: ref, Query: query, Opts: opts,
		cache: viewseeker.NewCache(1), refHash: viewseeker.HashTable(ref)}
	start := time.Now()
	s, err := tb.NewSession(0)
	if err != nil {
		return nil, fmt.Errorf("exp: %s testbed: %w", name, err)
	}
	tb.ExactBuild = time.Since(start)
	rows := s.FeatureRows()
	exact := make([]bool, len(rows))
	for i := range exact {
		exact[i] = true
	}
	tb.Session = s
	tb.Exact = &feature.Matrix{Specs: s.Specs(), Names: s.FeatureNames(), Rows: rows, Exact: exact}
	return tb, nil
}

// NewSession opens an exact session with recommendation size k (≤ 0: the
// default) over the testbed. Sessions share one offline version through
// the testbed's cache, as the server's sessions over one query do.
func (tb *Testbed) NewSession(k int) (*viewseeker.Seeker, error) {
	opts := tb.Opts
	opts.K, opts.Cache, opts.RefHash = k, tb.cache, tb.refHash
	return viewseeker.New(tb.Ref, tb.Query, opts)
}

// ColdReference returns a new version of the reference table that shares
// tb.Ref's columns. Its reference side (bin layouts, bin indexes,
// statistics) starts empty, so an offline pass over it pays every scan, as
// a user's first session over a freshly loaded table does.
func (tb *Testbed) ColdReference() (*dataset.Table, error) {
	return dataset.FromColumns(tb.Ref.Name, tb.Ref.Schema, tb.Ref.Cols)
}

// ColdRun is one measurement of Figures 6/7: it opens a session with
// recommendation size k at alpha over ColdReference, consulting no cache,
// and lets user label until the utility distance reaches 0. It returns
// the labels used and the wall time from the session's creation, offline
// phase and query included, to UD = 0.
func (tb *Testbed) ColdRun(user sim.Labeller, k int, alpha float64) (int, time.Duration, error) {
	ref, err := tb.ColdReference()
	if err != nil {
		return 0, 0, err
	}
	opts := tb.Opts
	opts.K, opts.Alpha = k, alpha
	start := time.Now()
	s, err := viewseeker.New(ref, tb.Query, opts)
	if err != nil {
		return 0, 0, err
	}
	res, err := run(s, user, k, sim.StopAtZeroUD)
	if err != nil {
		return 0, 0, err
	}
	return res.LabelsUsed, time.Since(start), nil
}

// Table1Row is one parameter line of the testbed table.
type Table1Row struct{ Parameter, Value string }

// Table1 returns the testbed-parameter rows the paper's Table 1 lists,
// populated from the live testbeds.
func Table1(diab, syn *Testbed) []Table1Row {
	dq := func(tb *Testbed) string {
		return fmt.Sprintf("%.2f%%", 100*float64(tb.Session.Target().NumRows())/float64(tb.Ref.NumRows()))
	}
	return []Table1Row{
		{"Total number of records (DIAB)", fmt.Sprint(diab.Ref.NumRows())},
		{"Total number of records (SYN)", fmt.Sprint(syn.Ref.NumRows())},
		{"Cardinality ratio of records in DQ (DIAB)", dq(diab)},
		{"Cardinality ratio of records in DQ (SYN)", dq(syn)},
		{"Number of dimension attributes (DIAB)", fmt.Sprint(len(diab.Ref.Schema.Dimensions()))},
		{"Number of dimension attributes (SYN)", fmt.Sprint(len(syn.Ref.Schema.Dimensions()))},
		{"Number of measure attributes (DIAB)", fmt.Sprint(len(diab.Ref.Schema.Measures()))},
		{"Number of measure attributes (SYN)", fmt.Sprint(len(syn.Ref.Schema.Measures()))},
		{"Number of aggregation functions", fmt.Sprint(len(view.Aggregates))},
		{"Number of view utility features", fmt.Sprint(len(diab.Session.FeatureNames()))},
		{"View space (DIAB)", fmt.Sprint(diab.Session.NumViews())},
		{"View space (SYN)", fmt.Sprint(syn.Session.NumViews())},
		{"Utility estimator", "Linear regressor"},
		{"Number of views presented per iteration", "1"},
		{"Optimization partial data ratio alpha", "10%"},
		{"Optimization time limit per iteration", "1 second"},
	}
}
