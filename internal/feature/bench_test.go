package feature

import (
	"context"
	"math/rand"
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

// benchGenerator builds a view space big enough that the fill dominates:
// two dimensions × {16, 64} bins × 3 measures × 5 aggregates, over a
// pre-warmed generator so every benchmark iteration times the post-scan
// feature fill, not the layout scans.
func benchGenerator(b *testing.B) *view.Generator {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "num", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m1", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m2", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m3", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	ref := dataset.NewTable("ref", schema)
	for i := 0; i < 20000; i++ {
		m1 := dataset.Float(rng.NormFloat64() * 5)
		if rng.Intn(9) == 0 {
			m1 = dataset.Null
		}
		ref.MustAppendRow(
			dataset.StringVal(string(rune('a'+rng.Intn(12)))),
			dataset.Float(rng.Float64()*50),
			m1,
			dataset.Int(int64(rng.Intn(40))),
			dataset.Float(rng.NormFloat64()*3+100),
		)
	}
	var sel []int
	for i := 0; i < ref.NumRows(); i += 7 {
		sel = append(sel, i)
	}
	tgt := ref.Subset("tgt", sel)
	g, err := view.NewGenerator(ref, tgt, view.SpaceConfig{BinCounts: []int{16, 64}})
	if err != nil {
		b.Fatal(err)
	}
	if err := g.WarmCtx(context.Background(), 0); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkMatrixFill is the layout-block benchmark: the whole view
// space's feature rows computed from warm layout statistics, block kernel
// versus the per-pair oracle (perPairMatrix), both sequential so the ratio
// measures the kernels rather than scheduling. The acceptance floor for
// the block kernel is ≥ 3× over per-pair.
func BenchmarkMatrixFill(b *testing.B) {
	g := benchGenerator(b)
	reg := StandardRegistry()
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := ComputeWorkers(g, reg, 1)
			if err != nil {
				b.Fatal(err)
			}
			if m.Len() == 0 {
				b.Fatal("empty matrix")
			}
		}
	})
	b.Run("perpair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows, err := perPairMatrix(g, reg, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("empty matrix")
			}
		}
	})
}
