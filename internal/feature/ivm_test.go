package feature

import (
	"testing"

	"viewseeker/internal/dataset"
	"viewseeker/internal/view"
)

// TestMatrixDeltaMatchesRebuild: feature matrices assembled over a
// delta-extended generator (warm caches carried across an append that
// leaves every layout's fit unchanged) must be bit-identical to matrices
// computed from scratch by a fresh generator over a private copy of the
// appended tables, which refits the layouts and shares no cached scan.
func TestMatrixDeltaMatchesRebuild(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "cat", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "num", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
		dataset.ColumnDef{Name: "m2", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
	)
	mkRow := func(i int) []dataset.Value {
		m := dataset.Value(dataset.Float(float64(i%13) * 1.5))
		if i%9 == 0 {
			m = dataset.Null
		}
		return []dataset.Value{
			dataset.StringVal(string(rune('a' + i%4))),
			dataset.Float(float64(i % 50)),
			m,
			dataset.Int(int64(i % 7)),
		}
	}
	base := dataset.NewTable("ref", schema)
	for i := 0; i < 200; i++ {
		base.MustAppendRow(mkRow(i)...)
	}
	var batch [][]dataset.Value
	for i := 200; i < 230; i++ {
		batch = append(batch, mkRow(i))
	}
	appended, err := base.WithAppended(batch)
	if err != nil {
		t.Fatal(err)
	}
	subset := func(tab *dataset.Table) *dataset.Table {
		col := tab.Column("m2")
		var sel []int
		for r := 0; r < tab.NumRows(); r++ {
			if v, ok := col.Float(r); ok && v >= 3 {
				sel = append(sel, r)
			}
		}
		return tab.Subset("dq", sel)
	}
	cfg := view.SpaceConfig{BinCounts: []int{3, 4}}
	reg := StandardRegistry()

	warm, err := view.NewGenerator(base, subset(base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeWorkers(warm, reg, 0); err != nil { // fills every scan cache
		t.Fatal(err)
	}
	delta, ok, err := warm.ApplyAppend(appended, subset(appended))
	if err != nil || !ok {
		t.Fatalf("an append within the fits was not extended: ok=%v err=%v", ok, err)
	}
	all := make([]int, appended.NumRows())
	for i := range all {
		all[i] = i
	}
	private := appended.Subset("ref", all)
	scratch, err := view.NewGenerator(private, subset(private), cfg)
	if err != nil {
		t.Fatal(err)
	}

	mDelta, err := ComputeWorkers(delta, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	mScratch, err := ComputeWorkers(scratch, reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mDelta.Len() != mScratch.Len() {
		t.Fatalf("matrix sizes differ: %d vs %d", mDelta.Len(), mScratch.Len())
	}
	for i := range mDelta.Rows {
		if mDelta.Specs[i] != mScratch.Specs[i] {
			t.Fatalf("row %d specs diverge: %v vs %v", i, mDelta.Specs[i], mScratch.Specs[i])
		}
		for j := range mDelta.Rows[i] {
			if mDelta.Rows[i][j] != mScratch.Rows[i][j] {
				t.Fatalf("view %v feature %s: delta %v != rebuild %v",
					mDelta.Specs[i], mDelta.Names[j], mDelta.Rows[i][j], mScratch.Rows[i][j])
			}
		}
	}
}
