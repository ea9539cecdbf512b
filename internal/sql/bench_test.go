package sql

import (
	"fmt"
	"math/rand"
	"testing"

	"viewseeker/internal/dataset"
)

func benchTable(rows int) *dataset.Table {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "g", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "x", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "y", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
	)
	t := dataset.NewTable("bench", schema)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			dataset.StringVal(string(rune('a'+rng.Intn(8)))),
			dataset.Float(rng.Float64()*100),
			dataset.Int(int64(rng.Intn(1000))),
		)
	}
	return t
}

func BenchmarkParse(b *testing.B) {
	const q = "SELECT g, COUNT(*) AS n, SUM(x * 2) FROM bench WHERE y > 10 AND g IN ('a', 'b') GROUP BY g HAVING COUNT(*) > 5 ORDER BY n DESC LIMIT 10"
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFilter(b *testing.B) {
	c := NewCatalog()
	c.Register(benchTable(100_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Query("SELECT x FROM bench WHERE y > 500 AND x < 50")
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkExplorationQuery times the query shape every cold session
// create runs: SELECT * under a two-dimension range box (~1% of SYN 200k).
func BenchmarkExplorationQuery(b *testing.B) {
	c := NewCatalog()
	c.Register(dataset.GenerateSYN(dataset.SYNConfig{Rows: 200_000, Seed: 1}))
	const q = "SELECT * FROM syn WHERE d3 >= 0.21 AND d3 < 0.31 AND d1 >= 0.5 AND d1 < 0.6"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkHashAggregate(b *testing.B) {
	c := NewCatalog()
	c.Register(benchTable(100_000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Query("SELECT g, COUNT(*), SUM(x), AVG(y), MIN(x), MAX(y) FROM bench GROUP BY g")
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() != 8 {
			b.Fatalf("groups = %d", res.NumRows())
		}
	}
}

func BenchmarkWidthBucketGroupBy(b *testing.B) {
	c := NewCatalog()
	c.Register(benchTable(100_000))
	q := fmt.Sprintf("SELECT WIDTH_BUCKET(x, 0, 100, %d) AS bin, COUNT(*) FROM bench GROUP BY WIDTH_BUCKET(x, 0, 100, %d)", 10, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}
