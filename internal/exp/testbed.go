package exp

import (
	"fmt"
	"time"

	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/sql"
	"viewseeker/internal/view"
)

// Testbed bundles one dataset configuration: the reference table DR, the
// query-defined subset DQ, the view generator, the feature registry and
// the exact (ground truth) feature matrix.
type Testbed struct {
	Name     string
	Ref      *dataset.Table
	Target   *dataset.Table
	Query    string
	Gen      *view.Generator
	Registry *feature.Registry
	Exact    *feature.Matrix
	// ExactBuild is how long the full offline feature pass took — the
	// unoptimised offline cost that Figure 7 compares against.
	ExactBuild time.Duration
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
	return newTestbed("DIAB", ref, dataset.DIABQuery, view.SpaceConfig{})
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
	return newTestbed("SYN", ref, dataset.SYNQuery, view.SpaceConfig{BinCounts: []int{3, 4}})
}

func newTestbed(name string, ref *dataset.Table, query string, spaceCfg view.SpaceConfig) (*Testbed, error) {
	cat := sql.NewCatalog()
	cat.Register(ref)
	target, err := cat.Query(query)
	if err != nil {
		return nil, fmt.Errorf("exp: carving DQ for %s: %w", name, err)
	}
	if target.NumRows() == 0 {
		return nil, fmt.Errorf("exp: DQ query selected no rows for %s", name)
	}
	target.Name = "dq"
	gen, err := view.NewGenerator(ref, target, spaceCfg)
	if err != nil {
		return nil, err
	}
	reg := feature.StandardRegistry()
	start := time.Now()
	exact, err := feature.Compute(gen, reg)
	if err != nil {
		return nil, err
	}
	return &Testbed{
		Name: name, Ref: ref, Target: target, Query: query,
		Gen: gen, Registry: reg, Exact: exact, ExactBuild: time.Since(start),
	}, nil
}

// NewGeneratorLike rebuilds a fresh view generator over the testbed's
// tables. Timed experiments need one per run: generators cache full-data
// group statistics, and sharing those caches across an unoptimised run and
// the optimised run it is compared against would contaminate the timings.
// A generator scans the reference through the side its table version
// owns, so the fresh one runs over a new version of the reference that
// shares tb.Ref's columns: its reference caches start cold too.
func (tb *Testbed) NewGeneratorLike() (*view.Generator, error) {
	cfg := view.SpaceConfig{}
	if tb.Name == "SYN" {
		cfg.BinCounts = []int{3, 4}
	}
	ref, err := dataset.FromColumns(tb.Ref.Name, tb.Ref.Schema, tb.Ref.Cols)
	if err != nil {
		return nil, err
	}
	return view.NewGenerator(ref, tb.Target, cfg)
}

// Table1Row is one parameter line of the testbed table.
type Table1Row struct{ Parameter, Value string }

// Table1 returns the testbed-parameter rows the paper's Table 1 lists,
// populated from the live testbeds.
func Table1(diab, syn *Testbed) []Table1Row {
	rows := []Table1Row{
		{"Total number of records (DIAB)", fmt.Sprint(diab.Ref.NumRows())},
		{"Total number of records (SYN)", fmt.Sprint(syn.Ref.NumRows())},
		{"Cardinality ratio of records in DQ (DIAB)", fmt.Sprintf("%.2f%%", 100*float64(diab.Target.NumRows())/float64(diab.Ref.NumRows()))},
		{"Cardinality ratio of records in DQ (SYN)", fmt.Sprintf("%.2f%%", 100*float64(syn.Target.NumRows())/float64(syn.Ref.NumRows()))},
		{"Number of dimension attributes (DIAB)", fmt.Sprint(len(diab.Ref.Schema.Dimensions()))},
		{"Number of dimension attributes (SYN)", fmt.Sprint(len(syn.Ref.Schema.Dimensions()))},
		{"Number of measure attributes (DIAB)", fmt.Sprint(len(diab.Ref.Schema.Measures()))},
		{"Number of measure attributes (SYN)", fmt.Sprint(len(syn.Ref.Schema.Measures()))},
		{"Number of aggregation functions", fmt.Sprint(len(view.Aggregates))},
		{"Number of view utility features", fmt.Sprint(diab.Registry.Len())},
		{"View space (DIAB)", fmt.Sprint(len(diab.Gen.Specs()))},
		{"View space (SYN)", fmt.Sprint(len(syn.Gen.Specs()))},
		{"Utility estimator", "Linear regressor"},
		{"Number of views presented per iteration", "1"},
		{"Optimization partial data ratio alpha", "10%"},
		{"Optimization time limit per iteration", "1 second"},
	}
	return rows
}
