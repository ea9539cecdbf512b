// Command datagen writes the synthetic testbed datasets (SYN, DIAB, NBA)
// to CSV so they can be inspected, loaded into other tools, or fed back to
// cmd/viewseeker via -data.
//
// With -append-batches N the rows are split into a base table plus N
// equal append batches (<out>.batch1.csv … <out>.batchN.csv), the input
// shape for exercising the live-table append path: serve the base with
// -wal-dir and feed the batches to POST /api/tables/{name}/append.
//
// With -drift D each batch K additionally has every numeric cell offset
// by K*D — a distribution-shifted append stream whose values pass the
// ranges of every earlier version, for exercising refit rebuilds
// (Maintained.Advance refits the bin layouts of a version whose appended
// rows move a dimension's minimum or maximum).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"viewseeker/internal/dataset"
)

func main() {
	var (
		name    = flag.String("dataset", "diab", "dataset to generate: diab, syn or nba")
		rows    = flag.Int("rows", 0, "record count (0 = the dataset's paper-scale default)")
		seed    = flag.Int64("seed", 0, "generator seed (0 = the dataset's default)")
		out     = flag.String("out", "", "output CSV path (default <dataset>.csv)")
		batches = flag.Int("append-batches", 0, "split the rows into a base CSV plus this many append-batch CSVs (<out>.batchK.csv), for replaying through the live-table append API")
		drift   = flag.Float64("drift", 0, "offset every numeric cell of append batch K by K times this value, simulating distribution drift: each batch moves the numeric ranges, so a maintained query refits its bin layouts (requires -append-batches)")
	)
	flag.Parse()
	var t *dataset.Table
	switch *name {
	case "diab":
		cfg := dataset.DefaultDIABConfig()
		if *rows > 0 {
			cfg.Rows = *rows
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		t = dataset.GenerateDIAB(cfg)
	case "syn":
		cfg := dataset.DefaultSYNConfig()
		if *rows > 0 {
			cfg.Rows = *rows
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		t = dataset.GenerateSYN(cfg)
	case "nba":
		cfg := dataset.DefaultNBAConfig()
		if *rows > 0 {
			cfg.Rows = *rows
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		t = dataset.GenerateNBA(cfg)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown dataset %q\n", *name)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = *name + ".csv"
	}
	if *drift != 0 && *batches <= 0 {
		fmt.Fprintln(os.Stderr, "datagen: -drift requires -append-batches")
		os.Exit(1)
	}
	if *batches > 0 {
		writeAppendBatches(t, path, *batches, *drift)
		return
	}
	if err := dataset.WriteCSVWithSchema(t, path); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d rows × %d columns to %s (+ .schema.json sidecar)\n", t.NumRows(), t.Schema.Len(), path)
	fmt.Printf("dimensions: %v\n", t.Schema.Dimensions())
	fmt.Printf("measures:   %v\n", t.Schema.Measures())
}

// writeAppendBatches splits the table into a base CSV plus n append-batch
// CSVs. The batches together hold the last tenth of the rows, split
// evenly — large base, small appends, the shape incremental maintenance
// is built for. A non-zero drift offsets batch K's numeric cells by K*drift.
func writeAppendBatches(t *dataset.Table, path string, n int, drift float64) {
	per := t.NumRows() / (10 * n)
	if per < 1 {
		fmt.Fprintf(os.Stderr, "datagen: %d rows cannot fill %d append batches (need at least %d rows)\n",
			t.NumRows(), n, 10*n)
		os.Exit(1)
	}
	baseRows := t.NumRows() - per*n
	write := func(sub *dataset.Table, p string) {
		if err := dataset.WriteCSVWithSchema(sub, p); err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
	}
	write(t.Subset(t.Name, seq(0, baseRows)), path)
	fmt.Printf("wrote base %s: %d rows × %d columns (+ .schema.json sidecar)\n", path, baseRows, t.Schema.Len())
	stem := strings.TrimSuffix(path, ".csv")
	for k := 1; k <= n; k++ {
		from := baseRows + (k-1)*per
		p := fmt.Sprintf("%s.batch%d.csv", stem, k)
		sub := t.Subset(t.Name, seq(from, from+per))
		if drift != 0 {
			sub = shiftNumeric(sub, float64(k)*drift)
		}
		write(sub, p)
		if drift != 0 {
			fmt.Printf("wrote batch %s: %d rows (numeric cells shifted by %+g)\n", p, per, float64(k)*drift)
		} else {
			fmt.Printf("wrote batch %s: %d rows\n", p, per)
		}
	}
}

// shiftNumeric returns a copy of t with every non-null numeric cell offset
// by delta, preserving column kinds (int columns round toward zero).
func shiftNumeric(t *dataset.Table, delta float64) *dataset.Table {
	out := dataset.NewTable(t.Name, t.Schema)
	for r := 0; r < t.NumRows(); r++ {
		vals := t.Row(r)
		for j, v := range vals {
			if v.IsNull() {
				continue
			}
			switch v.Kind {
			case dataset.KindFloat:
				f, _ := v.AsFloat()
				vals[j] = dataset.Float(f + delta)
			case dataset.KindInt:
				i, _ := v.AsInt()
				vals[j] = dataset.Int(i + int64(delta))
			}
		}
		out.MustAppendRow(vals...)
	}
	return out
}

func seq(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}
