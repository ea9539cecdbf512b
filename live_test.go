package viewseeker

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"viewseeker/internal/dataset"
	"viewseeker/internal/feature"
	"viewseeker/internal/view"
)

// liveSYN returns a SYN table split into a base and an append batch of
// boxed rows, so tests can grow a live table with data the exploration
// query selects from.
func liveSYN(t *testing.T, rows, appendRows int) (*Table, [][]Value) {
	t.Helper()
	full := dataset.GenerateSYN(dataset.SYNConfig{Rows: rows + appendRows, Seed: 7})
	base := full.Subset(full.Name, seqRows(0, rows))
	if err := dataset.AssignRoles(base, full.Schema.Dimensions(), full.Schema.Measures()); err != nil {
		t.Fatal(err)
	}
	batch := make([][]Value, appendRows)
	for i := range batch {
		batch[i] = full.Row(rows + i)
	}
	return base, batch
}

func seqRows(from, to int) []int {
	out := make([]int, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

func TestMaintainedAdvanceMatchesRebuild(t *testing.T) {
	base, batch := liveSYN(t, 3000, 300)
	lt, _, err := OpenLiveTable(filepath.Join(t.TempDir(), "syn.wal"), base, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()

	opts := Options{K: 5, BinCounts: []int{3, 4}}
	m, err := Maintain(lt, dataset.SYNQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append(batch); err != nil {
		t.Fatal(err)
	}
	changed, err := m.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("Advance saw no change after an append")
	}
	if st := m.Stats(); st.Extended != 1 || st.Rebuilt != 0 {
		t.Fatalf("stats: extended %d rebuilt %d, want the incremental path", st.Extended, st.Rebuilt)
	}

	// Oracle: a full recompute over the appended tables with the base's
	// pinned layouts (delta maintenance pins layouts by design — a fresh
	// Maintain would re-fit bin boundaries to the new data and legitimately
	// differ). A cold generator's ApplyAppend carries exactly the pinned
	// layouts and empty caches, so Compute over it is a from-scratch pass.
	newRef := lt.Current()
	baseTarget, err := Query(base, dataset.SYNQuery)
	if err != nil {
		t.Fatal(err)
	}
	baseTarget.Name = base.Name + "_dq"
	newTarget, err := Query(newRef, dataset.SYNQuery)
	if err != nil {
		t.Fatal(err)
	}
	newTarget.Name = newRef.Name + "_dq"
	spaceCfg := view.SpaceConfig{BinCounts: opts.BinCounts}.Normalized()
	cold, err := view.NewGenerator(base, baseTarget, spaceCfg)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := cold.ApplyAppend(newRef, newTarget)
	if err != nil {
		t.Fatal(err)
	}
	want, err := feature.ComputeWorkers(scratch, feature.StandardRegistry(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Matrix()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("matrix rows %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			if math.Float64bits(got.Rows[i][j]) != math.Float64bits(want.Rows[i][j]) {
				t.Fatalf("matrix[%d][%d] = %v, rebuild %v — delta maintenance is not bit-identical",
					i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}

	// Idempotence: no new appends, no work.
	if changed, err := m.Advance(); err != nil || changed {
		t.Fatalf("no-op Advance: changed %v err %v", changed, err)
	}
}

func TestMaintainedSessionsAcrossAppends(t *testing.T) {
	base, batch := liveSYN(t, 2000, 200)
	lt, _, err := OpenLiveTable(filepath.Join(t.TempDir(), "syn.wal"), base, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	m, err := Maintain(lt, dataset.SYNQuery, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	oldRows := s1.Reference().NumRows()

	if _, err := lt.Append(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(); err != nil {
		t.Fatal(err)
	}
	s2, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// s1 keeps the version it was built on; s2 sees the appended rows.
	if s1.Reference().NumRows() != oldRows {
		t.Fatal("existing session's reference changed under it")
	}
	if got := s2.Reference().NumRows(); got != oldRows+len(batch) {
		t.Fatalf("new session sees %d rows, want %d", got, oldRows+len(batch))
	}
	for _, s := range []*Seeker{s1, s2} {
		v, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feedback(v.Index, 1); err != nil {
			t.Fatal(err)
		}
		if len(s.TopK()) == 0 {
			t.Fatal("no recommendations")
		}
	}
}

func TestMaintainedForcesExact(t *testing.T) {
	base, _ := liveSYN(t, 1000, 0)
	lt, _, err := OpenLiveTable(filepath.Join(t.TempDir(), "syn.wal"), base, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	m, err := Maintain(lt, dataset.SYNQuery, Options{Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range m.Matrix().Exact {
		if !e {
			t.Fatalf("row %d is inexact: Maintain must force Alpha = 1", i)
		}
	}
}

// shiftedBatch boxes n rows of full starting at from with every numeric
// cell offset by shift — a distribution-shifted append stream.
func shiftedBatch(full *Table, from, n int, shift float64) [][]Value {
	out := make([][]Value, n)
	for i := range out {
		row := full.Row(from + i)
		for j, v := range row {
			if f, ok := v.AsFloat(); ok {
				row[j] = dataset.Float(f + shift)
			}
		}
		out[i] = row
	}
	return out
}

// TestMaintainedDriftRebuild is the drift property test: a distribution-
// shifted append stream triggers exactly one drift rebuild per threshold
// crossing — the rebuild re-fits the layouts, so a second batch from the
// same shifted distribution extends instead of rebuilding, and only a
// further shift crosses again — and the rebuilt state is bit-identical to
// a fresh Maintain over the full table.
func TestMaintainedDriftRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2000 + rng.Intn(500)
		batchN := 100 + rng.Intn(100)
		shift := 2 + rng.Float64()*8
		full := dataset.GenerateSYN(dataset.SYNConfig{Rows: rows + 3*batchN, Seed: seed})
		base := full.Subset(full.Name, seqRows(0, rows))
		if err := dataset.AssignRoles(base, full.Schema.Dimensions(), full.Schema.Measures()); err != nil {
			t.Fatal(err)
		}
		lt, _, err := OpenLiveTable(filepath.Join(t.TempDir(), "syn.wal"), base, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer lt.Close()
		opts := Options{K: 3, BinCounts: []int{3, 4}}
		m, err := Maintain(lt, dataset.SYNQuery, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Crossing 1: the whole batch escapes the pinned layouts.
		if _, err := lt.Append(shiftedBatch(full, rows, batchN, shift)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Advance(); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.DriftRebuilds != 1 {
			t.Fatalf("after shifted batch: stats %+v, want exactly 1 drift rebuild", st)
		}
		if r := m.DriftRate(); r != 0 {
			t.Fatalf("drift rate %g after re-fit, want 0", r)
		}

		// Same shifted distribution again: the re-fit layouts cover it, so
		// the incremental path serves it — no second rebuild.
		if _, err := lt.Append(shiftedBatch(full, rows+batchN, batchN, shift)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Advance(); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.DriftRebuilds != 1 || st.Extended != 1 {
			t.Fatalf("after in-distribution batch: stats %+v, want extension without rebuild", st)
		}

		// Crossing 2: shift past the re-fit layouts.
		if _, err := lt.Append(shiftedBatch(full, rows+2*batchN, batchN, 3*shift)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Advance(); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.DriftRebuilds != 2 {
			t.Fatalf("after second shift: stats %+v, want a second drift rebuild", st)
		}

		// The drift rebuild is exactly a Maintain-from-scratch on the full
		// table: same specs, bit-identical feature matrix.
		fresh, err := Maintain(lt, dataset.SYNQuery, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, want := m.Matrix(), fresh.Matrix()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("matrix rows %d vs fresh %d", len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			for j := range got.Rows[i] {
				if math.Float64bits(got.Rows[i][j]) != math.Float64bits(want.Rows[i][j]) {
					t.Fatalf("matrix[%d][%d] = %v, fresh Maintain %v — drift rebuild is not bit-identical",
						i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

// TestMaintainedProjectionSuffix: a WHERE-only projection (not SELECT *)
// is row-local, so Advance evaluates it over just the appended suffix —
// and the suffix-built target is bit-identical to re-running the query
// over the full current table.
func TestMaintainedProjectionSuffix(t *testing.T) {
	query := "SELECT d1, d2, d3, d4, d5, m1, m2, m3, m4, m5 FROM syn WHERE d1 < 0.0707 AND d2 < 0.0707"
	base, batch := liveSYN(t, 2000, 300)
	lt, _, err := OpenLiveTable(filepath.Join(t.TempDir(), "syn.wal"), base, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	m, err := Maintain(lt, query, Options{K: 3, BinCounts: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Extended != 1 || st.Rebuilt != 0 || st.DriftRebuilds != 0 {
		t.Fatalf("stats %+v: the projection did not take the suffix fast path", st)
	}

	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	got := s.Target()
	oracle, err := Query(lt.Current(), query)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != oracle.NumRows() || got.NumRows() <= 0 {
		t.Fatalf("suffix target has %d rows, full re-query %d", got.NumRows(), oracle.NumRows())
	}
	for r := 0; r < got.NumRows(); r++ {
		if !reflect.DeepEqual(got.Row(r), oracle.Row(r)) {
			t.Fatalf("row %d: suffix target %v != full re-query %v", r, got.Row(r), oracle.Row(r))
		}
	}
}

// TestMaintainedAllNullColumnExtends is the regression test for a result
// column whose cells are all NULL when Maintain runs. Result kinds used
// to be inferred from the values, so that column came back as a string
// column; the suffix path then appended later numbers to it as strings,
// and every view over the measure silently stayed empty, unlike a rebuild.
// A passed-through column now keeps its source kind.
func TestMaintainedAllNullColumnExtends(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.ColumnDef{Name: "g", Kind: dataset.KindString, Role: dataset.RoleDimension},
		dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	)
	base := dataset.NewTable("t", schema)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			base.MustAppendRow(dataset.StringVal("z"), dataset.Null)
		} else {
			base.MustAppendRow(dataset.StringVal("a"), dataset.Float(float64(i)))
		}
	}
	lt, _, err := OpenLiveTable(filepath.Join(t.TempDir(), "t.wal"), base, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	const query = "SELECT * FROM t WHERE g = 'z'"
	m, err := Maintain(lt, query, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append([][]Value{
		{dataset.StringVal("z"), dataset.Float(5)}, {dataset.StringVal("z"), dataset.Float(7)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Extended != 1 {
		t.Fatalf("stats = %+v, want one suffix extension", st)
	}
	maintained, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := lt.Snapshot()
	fresh, err := New(ref, query, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := maintained.Target().Schema.Columns, fresh.Target().Schema.Columns; !reflect.DeepEqual(got, want) {
		t.Fatalf("maintained target schema %v, rebuilt %v", got, want)
	}
	for i := 0; i < fresh.NumViews(); i++ {
		a, err := maintained.Pair(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Pair(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Target.Values, b.Target.Values) {
			t.Errorf("%v: maintained %v, rebuilt %v", fresh.Specs()[i], a.Target.Values, b.Target.Values)
		}
	}
}
