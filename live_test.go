package viewseeker

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"viewseeker/internal/dataset"
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

// inFitBatch boxes n rows of base, taken with a stride, as an append
// batch: every value is already in base, so the batch leaves every bin
// layout's fit unchanged and Advance may extend.
func inFitBatch(base *Table, n int) [][]Value {
	out := make([][]Value, n)
	for i := range out {
		out[i] = base.Row(i * 37 % base.NumRows())
	}
	return out
}

// currentSession mints a session on m's current version with the options m
// was maintained with.
func currentSession(m *Maintained) (*Seeker, error) {
	v, ref, _ := m.Version()
	return m.NewSessionOn(ref, v, m.opts)
}

func TestMaintainedAdvanceMatchesRebuild(t *testing.T) {
	base, _ := liveSYN(t, 3000, 0)
	lt, _, err := OpenLiveTableOptions(filepath.Join(t.TempDir(), "syn.wal"), base, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()

	opts := Options{K: 5, BinCounts: []int{3, 4}}
	m, err := Maintain(lt, dataset.SYNQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append(inFitBatch(base, 300)); err != nil {
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
	requireColdEqual(t, lt, m, dataset.SYNQuery, opts)

	// Idempotence: no new appends, no work.
	if changed, err := m.Advance(); err != nil || changed {
		t.Fatalf("no-op Advance: changed %v err %v", changed, err)
	}
}

// sameBits reports whether two float slices are equal bit for bit (so a
// NaN equals the same NaN).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samePair reports whether two view pairs are equal bit for bit.
func samePair(a, b *Pair) bool {
	same := func(x, y *view.Histogram) bool {
		return reflect.DeepEqual(x.Labels, y.Labels) && math.Float64bits(x.Shift) == math.Float64bits(y.Shift) &&
			sameBits(x.Values, y.Values) && sameBits(x.Counts, y.Counts) &&
			sameBits(x.Sums, y.Sums) && sameBits(x.SumSqs, y.SumSqs)
	}
	return a.Spec == b.Spec && same(a.Target, b.Target) && same(a.Reference, b.Reference)
}

// requireColdEqual fails the test unless m's current version is bit for
// bit what a fresh Maintain and a cold exact New return at the live
// table's current version — the specs, the feature matrix and every
// view's pair. The cold New runs over a private copy of the table
// version, so it shares no reference side with the maintained states.
func requireColdEqual(t *testing.T, lt *LiveTable, m *Maintained, query string, opts Options) {
	t.Helper()
	v, ref, seq := m.Version()
	if cur, curSeq := lt.Snapshot(); ref != cur || seq != curSeq {
		t.Fatalf("maintained state at seq %d, the table at %d", seq, curSeq)
	}
	fresh, err := Maintain(lt, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	copyOpts := opts
	copyOpts.Alpha = 1
	cold, err := New(ref.Subset(ref.Name, seqRows(0, ref.NumRows())), query, copyOpts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := currentSession(m)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := currentSession(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*Seeker{"cold New": cold, "fresh Maintain": warm} {
		if !reflect.DeepEqual(v.Specs, w.Specs()) {
			t.Fatalf("seq %d: view space differs from a %s", seq, name)
		}
		for j, row := range w.FeatureRows() {
			if !sameBits(v.Rows[j], row) {
				t.Fatalf("seq %d: %v features %v, %s %v", seq, v.Specs[j], v.Rows[j], name, row)
			}
		}
		for j := range v.Specs {
			a, err := got.Pair(j)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.Pair(j)
			if err != nil {
				t.Fatal(err)
			}
			if !samePair(a, b) {
				t.Fatalf("seq %d: %v pair differs from a %s", seq, v.Specs[j], name)
			}
		}
	}
}

func TestMaintainedSessionsAcrossAppends(t *testing.T) {
	base, batch := liveSYN(t, 2000, 200)
	lt, _, err := OpenLiveTableOptions(filepath.Join(t.TempDir(), "syn.wal"), base, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	m, err := Maintain(lt, dataset.SYNQuery, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := currentSession(m)
	if err != nil {
		t.Fatal(err)
	}
	oldRows := s1.ref.NumRows()

	if _, err := lt.Append(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Advance(); err != nil {
		t.Fatal(err)
	}
	s2, err := currentSession(m)
	if err != nil {
		t.Fatal(err)
	}
	// s1 keeps the version it was built on; s2 sees the appended rows.
	if s1.ref.NumRows() != oldRows {
		t.Fatal("existing session's reference changed under it")
	}
	if got := s2.ref.NumRows(); got != oldRows+len(batch) {
		t.Fatalf("new session sees %d rows, want %d", got, oldRows+len(batch))
	}
	for _, s := range []*Seeker{s1, s2} {
		v, _, err := s.Next()
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
	lt, _, err := OpenLiveTableOptions(filepath.Join(t.TempDir(), "syn.wal"), base, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	m, err := Maintain(lt, dataset.SYNQuery, Options{Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ := m.Version()
	for i, e := range v.Exact {
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

// TestMaintainedRefitRebuild: a distribution-shifted batch moves the
// dimensions' ranges, so Advance rebuilds with refitted layouts; the same
// batch again leaves the refitted layouts' fit unchanged and extends; a
// further shift rebuilds again. Each state equals a fresh Maintain and a
// cold New at its version.
func TestMaintainedRefitRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2000 + rng.Intn(500)
		batchN := 100 + rng.Intn(100)
		shift := 2 + rng.Float64()*8
		full := dataset.GenerateSYN(dataset.SYNConfig{Rows: rows + 2*batchN, Seed: seed})
		base := full.Subset(full.Name, seqRows(0, rows))
		if err := dataset.AssignRoles(base, full.Schema.Dimensions(), full.Schema.Measures()); err != nil {
			t.Fatal(err)
		}
		lt, _, err := OpenLiveTableOptions(filepath.Join(t.TempDir(), "syn.wal"), base, LiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer lt.Close()
		opts := Options{K: 3, BinCounts: []int{3, 4}}
		m, err := Maintain(lt, dataset.SYNQuery, opts)
		if err != nil {
			t.Fatal(err)
		}
		shifted := shiftedBatch(full, rows, batchN, shift)
		for i, step := range []struct {
			batch             [][]Value
			extended, rebuilt int
		}{
			{shifted, 0, 1},
			{shifted, 1, 1},
			{shiftedBatch(full, rows+batchN, batchN, 3*shift), 1, 2},
		} {
			if _, err := lt.Append(step.batch); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Advance(); err != nil {
				t.Fatal(err)
			}
			if st := m.Stats(); st.Extended != step.extended || st.Rebuilt != step.rebuilt {
				t.Fatalf("after batch %d: stats %+v, want %d extended and %d rebuilt", i, st, step.extended, step.rebuilt)
			}
			requireColdEqual(t, lt, m, dataset.SYNQuery, opts)
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
	base, _ := liveSYN(t, 2000, 0)
	batch := inFitBatch(base, 300)
	lt, _, err := OpenLiveTableOptions(filepath.Join(t.TempDir(), "syn.wal"), base, LiveOptions{})
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
	if st := m.Stats(); st.Extended != 1 || st.Rebuilt != 0 {
		t.Fatalf("stats %+v: the projection did not take the suffix fast path", st)
	}

	s, err := currentSession(m)
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

// TestMaintainedOrderByRebuilds: an ORDER BY query is not row-local —
// appended rows may land anywhere in its result — so Advance serves it by
// one rebuild, which equals a fresh Maintain over the current table.
func TestMaintainedOrderByRebuilds(t *testing.T) {
	query := dataset.SYNQuery + " ORDER BY m1"
	base, batch := liveSYN(t, 2000, 300)
	lt, _, err := OpenLiveTableOptions(filepath.Join(t.TempDir(), "syn.wal"), base, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	opts := Options{K: 3, BinCounts: []int{3, 4}}
	m, err := Maintain(lt, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lt.Append(batch); err != nil {
		t.Fatal(err)
	}
	if changed, err := m.Advance(); err != nil || !changed {
		t.Fatalf("Advance: changed %v err %v", changed, err)
	}
	if st := m.Stats(); st.Rebuilt != 1 || st.Extended != 0 {
		t.Fatalf("stats %+v, want one rebuild", st)
	}

	fresh, err := Maintain(lt, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	gv, _, _ := m.Version()
	wv, _, _ := fresh.Version()
	if !reflect.DeepEqual(gv.Specs, wv.Specs) {
		t.Fatal("view spaces differ from a fresh Maintain")
	}
	for i := range gv.Rows {
		for j := range gv.Rows[i] {
			if math.Float64bits(gv.Rows[i][j]) != math.Float64bits(wv.Rows[i][j]) {
				t.Fatalf("matrix[%d][%d] = %v, fresh Maintain %v", i, j, gv.Rows[i][j], wv.Rows[i][j])
			}
		}
	}
	gt, wt := gv.TargetTable(), wv.TargetTable()
	if gt.NumRows() != wt.NumRows() {
		t.Fatalf("target has %d rows, fresh Maintain %d", gt.NumRows(), wt.NumRows())
	}
	for r := 0; r < gt.NumRows(); r++ {
		if !reflect.DeepEqual(gt.Row(r), wt.Row(r)) {
			t.Fatalf("target row %d: %v, fresh Maintain %v", r, gt.Row(r), wt.Row(r))
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
	lt, _, err := OpenLiveTableOptions(filepath.Join(t.TempDir(), "t.wal"), base, LiveOptions{})
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
	maintained, err := currentSession(m)
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

// streamSchema is the property stream's table: a string, a bool, a float
// and an int dimension, a float measure with NaN, an int measure, and a
// float measure that starts all NULL.
var streamSchema = dataset.MustSchema(
	dataset.ColumnDef{Name: "c", Kind: dataset.KindString, Role: dataset.RoleDimension},
	dataset.ColumnDef{Name: "b", Kind: dataset.KindBool, Role: dataset.RoleDimension},
	dataset.ColumnDef{Name: "x", Kind: dataset.KindFloat, Role: dataset.RoleDimension},
	dataset.ColumnDef{Name: "k", Kind: dataset.KindInt, Role: dataset.RoleDimension},
	dataset.ColumnDef{Name: "m", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
	dataset.ColumnDef{Name: "mi", Kind: dataset.KindInt, Role: dataset.RoleMeasure},
	dataset.ColumnDef{Name: "mn", Kind: dataset.KindFloat, Role: dataset.RoleMeasure},
)

// streamQueries are the two maintained queries of a stream; the base
// table always holds rows for both.
var streamQueries = [...]string{
	"SELECT * FROM t WHERE x < 0.5",
	"SELECT * FROM t WHERE c = 'a' OR k > 5",
}

// streamRow draws one row. kind picks what the row may carry beyond
// in-range values: 0 in range only, 1 NULLs and NaN, 2 new extremes and
// ±Inf, 3 new categories, 4 a first value for the all-NULL measure.
func streamRow(rng *rand.Rand, kind int) []Value {
	f := dataset.Float
	pick := func(vals ...Value) Value { return vals[rng.Intn(len(vals))] }
	row := []Value{
		pick(dataset.StringVal("a"), dataset.StringVal("b"), dataset.StringVal("c")),
		dataset.Bool(rng.Intn(2) == 0),
		f(float64(rng.Intn(9)) / 8),
		dataset.Int(int64(rng.Intn(11))),
		f(rng.NormFloat64() * 10),
		dataset.Int(int64(rng.Intn(100))),
		dataset.Null,
	}
	switch kind {
	case 1:
		for _, j := range []int{0, 1, 2, 3, 4, 5} {
			if rng.Intn(3) == 0 {
				row[j] = dataset.Null
			}
		}
		if rng.Intn(2) == 0 {
			row[2] = f(math.NaN())
		}
		row[4] = pick(row[4], f(math.NaN()), dataset.Null)
	case 2:
		row[2] = pick(f(-1-rng.Float64()), f(2+rng.Float64()), f(math.Inf(1)), f(math.Inf(-1)))
		row[3] = pick(dataset.Int(-3), dataset.Int(20))
		row[4] = pick(f(-1e12), f(1e12))
	case 3:
		row[0] = pick(dataset.StringVal("new"), dataset.StringVal(""), dataset.StringVal("a"))
	case 4:
		row[6] = f(rng.NormFloat64())
	}
	return row
}

// TestMaintainedMatchesColdProperty is the IVM ≡ rebuild property test:
// random append streams — in-range batches, new minima and maxima, NaN
// and ±Inf, NULLs and new categories, an all-NULL measure gaining its
// first value — drive two maintained queries on one live table under
// {3,4} bin configurations. The two
// states advance concurrently; after every Advance each must equal a
// fresh Maintain and a cold exact New at that version bit for bit
// (requireColdEqual), and the two must scan one reference side.
func TestMaintainedMatchesColdProperty(t *testing.T) {
	var extended, rebuilt int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := dataset.NewTable("t", streamSchema)
		base.MustAppendRow(streamRow(rng, 0)...)
		base.MustAppendRow(dataset.StringVal("a"), dataset.Bool(true), dataset.Float(0), dataset.Int(0),
			dataset.Float(1), dataset.Int(1), dataset.Null)
		for i := 0; i < 40+rng.Intn(40); i++ {
			base.MustAppendRow(streamRow(rng, 0)...)
		}
		lt, _, err := OpenLiveTableOptions(filepath.Join(t.TempDir(), "t.wal"), base, LiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer lt.Close()
		opts := Options{K: 3, BinCounts: []int{3, 4}}
		var states [len(streamQueries)]*Maintained
		for i, q := range streamQueries {
			if states[i], err = Maintain(lt, q, opts); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 6; step++ {
			kind := rng.Intn(5)
			batch := make([][]Value, 1+rng.Intn(6))
			for i := range batch {
				batch[i] = streamRow(rng, kind)
			}
			if _, err := lt.Append(batch); err != nil {
				t.Fatal(err)
			}
			// The two states advance at once, racing to extend the
			// parent's reference side into the new version's.
			var wg sync.WaitGroup
			var errs [len(states)]error
			for i, m := range states {
				wg.Add(1)
				go func(i int, m *Maintained) {
					defer wg.Done()
					_, errs[i] = m.Advance()
				}(i, m)
			}
			wg.Wait()
			for i, m := range states {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				requireColdEqual(t, lt, m, streamQueries[i], opts)
			}
			for _, spec := range states[0].gen.Specs() {
				r0, _, err := states[0].gen.LayoutStats(spec)
				if err != nil {
					t.Fatal(err)
				}
				r1, _, err := states[1].gen.LayoutStats(spec)
				if err != nil {
					t.Fatal(err)
				}
				if r0 != r1 {
					t.Fatalf("step %d: the maintained states scan %v over two reference sides", step, spec)
				}
			}
		}
		for _, m := range states {
			st := m.Stats()
			extended += st.Extended
			rebuilt += st.Rebuilt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
	if extended == 0 || rebuilt == 0 {
		t.Fatalf("streams extended %d and rebuilt %d times: both paths must run", extended, rebuilt)
	}
}

// TestCheckpointStressRecoversModel interleaves appends with every other
// writer of a live table's durable state: auto-checkpoints at a tiny
// CheckpointBytes, explicit Checkpoint calls, a maintainer's Advance loop
// and, while those still run, Close. Reopened, the table must equal the
// in-memory model of every committed batch bit for bit: its row count and
// every int, float, string and bool cell, NULLs included. Run it under
// -race: it is the concurrency test of checkpoint, append, maintenance
// and shutdown.
func TestCheckpointStressRecoversModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := dataset.NewTable("t", streamSchema)
		for i := 0; i < 40; i++ {
			base.MustAppendRow(streamRow(rng, 0)...)
		}
		model := make([][]Value, base.NumRows())
		for i := range model {
			model[i] = base.Row(i)
		}
		path := filepath.Join(t.TempDir(), "t.wal")
		lt, _, err := OpenLiveTableOptions(path, base, LiveOptions{SyncEvery: 4, CheckpointBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Maintain(lt, streamQueries[0], Options{K: 3, BinCounts: []int{3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		loop := func(step func()) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						step()
					}
				}
			}()
		}
		// Errors are expected once Close has run; only the recovered table
		// is judged.
		loop(func() { lt.Checkpoint() })
		loop(func() { m.Advance() })
		// Close lands while appends are still arriving: every append
		// before it committed, and the first one after it fails whole.
		closeAt, closed := make(chan struct{}), make(chan error, 1)
		go func() {
			<-closeAt
			closed <- lt.Close()
		}()
		committed := 0
		for b := 0; ; b++ {
			if b == 100 {
				close(closeAt)
			}
			batch := make([][]Value, 1+rng.Intn(8))
			kind := rng.Intn(5)
			for i := range batch {
				batch[i] = streamRow(rng, kind)
			}
			if seq, _ := lt.Append(batch); seq == 0 {
				break
			}
			model = append(model, batch...)
			committed++
		}
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if committed < 100 {
			t.Fatalf("seed %d: only %d appends committed before Close", seed, committed)
		}

		lt2, rec, err := OpenLiveTableOptions(path, base, LiveOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := lt2.Current()
		if got.NumRows() != len(model) || rec.LastSeq != uint64(committed) {
			t.Fatalf("seed %d: recovered %d rows through seq %d, model %d rows through %d",
				seed, got.NumRows(), rec.LastSeq, len(model), committed)
		}
		for r, row := range model {
			for j, want := range row {
				v := got.Cols[j].Value(r)
				if v.Kind != want.Kind || v.I != want.I || v.S != want.S || v.B != want.B ||
					math.Float64bits(v.F) != math.Float64bits(want.F) {
					t.Fatalf("seed %d: row %d column %q recovered %v, model %v", seed, r, got.Cols[j].Def.Name, v, want)
				}
			}
		}
		if rec.Segments == 0 {
			t.Fatalf("seed %d: no checkpoint segment was written", seed)
		}
		lt2.Close()
	}
}
