package session

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"viewseeker"
	"viewseeker/internal/dataset"
	"viewseeker/internal/obs"
	"viewseeker/internal/store"
)

var (
	tableOnce sync.Once
	testTable *viewseeker.Table
)

func diab(t *testing.T) *viewseeker.Table {
	t.Helper()
	tableOnce.Do(func() {
		testTable = dataset.GenerateDIAB(dataset.DIABConfig{Rows: 800, Seed: 51})
	})
	return testTable
}

// buildFrom is the test rehydration closure: a cold rebuild from the
// journalled create record, exactly like the server's.
func buildFrom(table *viewseeker.Table) BuildFunc {
	return func(ctx context.Context, c store.Record) (*viewseeker.Seeker, error) {
		return viewseeker.NewCtx(ctx, table, c.Query, viewseeker.Options{
			K: c.K, Alpha: c.Alpha, Strategy: c.Strategy, Seed: c.Seed, Workers: c.Workers,
		})
	}
}

func createRecord(id string) store.Record {
	return store.Record{
		Op: store.OpCreate, Session: id, Table: "diab",
		Query: dataset.DIABQuery, K: 3, Seed: 17,
	}
}

// putSession builds and registers one session, returning its create record.
func putSession(t *testing.T, m *Manager, table *viewseeker.Table, id string) store.Record {
	t.Helper()
	c := createRecord(id)
	sk, err := buildFrom(table)(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Put(id, c, buildFrom(table), sk) {
		t.Fatalf("Put(%q) refused: id taken", id)
	}
	return c
}

// TestEvictRehydrateBitIdentity is the core lifecycle contract: a session
// that is evicted and rehydrated between every step must behave
// identically — same top-k, same weights, same scores — to a twin that
// stayed resident the whole time.
func TestEvictRehydrateBitIdentity(t *testing.T) {
	table := diab(t)
	m := NewManager(Config{})

	putSession(t, m, table, "managed")
	control, err := buildFrom(table)(context.Background(), createRecord("managed"))
	if err != nil {
		t.Fatal(err)
	}

	labels := []struct {
		view  int
		label float64
	}{{4, 1}, {11, 0}, {42, 0.5}, {7, 1}, {19, 0}}

	for step, fb := range labels {
		// Evict before every touch: each feedback lands on a freshly
		// rehydrated seeker.
		if n := m.EvictIdle(); n != 1 {
			t.Fatalf("step %d: EvictIdle = %d, want 1", step, n)
		}
		h, err := m.Acquire(context.Background(), "managed")
		if err != nil {
			t.Fatalf("step %d: Acquire after eviction: %v", step, err)
		}
		if err := h.Seeker().Feedback(fb.view, fb.label); err != nil {
			t.Fatalf("step %d: feedback: %v", step, err)
		}
		h.RecordFeedback(fb.view, fb.label)
		if err := control.Feedback(fb.view, fb.label); err != nil {
			t.Fatal(err)
		}
		gotTop, wantTop := h.Seeker().TopK(), control.TopK()
		if !reflect.DeepEqual(gotTop, wantTop) {
			t.Fatalf("step %d: rehydrated top-k diverged:\n got %+v\nwant %+v", step, gotTop, wantTop)
		}
		gotW, gotB := h.Seeker().Weights()
		wantW, wantB := control.Weights()
		if gotB != wantB || !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("step %d: rehydrated weights diverged", step)
		}
		h.Release()
	}

	reg := obs.NewRegistry()
	m.Instrument(reg)
	snap := reg.Snapshot()
	if snap["viewseeker_session_resident"] != 1 || snap["viewseeker_session_cold"] != 0 {
		t.Errorf("gauges = %v", snap)
	}
}

// TestBudgetEviction checks the LRU loop: with a budget sized for roughly
// one session, registering several leaves the accounted total under the
// budget and only the hottest resident.
func TestBudgetEviction(t *testing.T) {
	table := diab(t)
	// Size the budget from a real session estimate.
	sk, err := buildFrom(table)(context.Background(), createRecord("sizer"))
	if err != nil {
		t.Fatal(err)
	}
	per := sk.MemoryBytes()
	m := NewManager(Config{BudgetBytes: per + per/2})
	reg := obs.NewRegistry()
	m.Instrument(reg)

	for i := 0; i < 4; i++ {
		putSession(t, m, table, fmt.Sprintf("s%d", i))
	}
	st := m.Stats()
	if st.ResidentBytes > m.BudgetBytes() {
		t.Fatalf("resident %d > budget %d after Put settles", st.ResidentBytes, m.BudgetBytes())
	}
	if st.Resident+st.Cold != 4 {
		t.Fatalf("stats = %+v, want 4 sessions total", st)
	}
	snap := reg.Snapshot()
	if snap["viewseeker_session_evictions_total"] < 3 {
		t.Errorf("evictions = %v, want >= 3", snap["viewseeker_session_evictions_total"])
	}
	if snap["viewseeker_session_resident_bytes"] != float64(st.ResidentBytes) {
		t.Errorf("gauge %v != stats %d", snap["viewseeker_session_resident_bytes"], st.ResidentBytes)
	}

	// The cold sessions are still reachable: touching one rehydrates it
	// (and the rehydration is itself accounted, evicting the previous
	// resident).
	h, err := m.Acquire(context.Background(), "s0")
	if err != nil {
		t.Fatalf("Acquire cold: %v", err)
	}
	if h.Seeker() == nil {
		t.Fatal("rehydrated handle has nil seeker")
	}
	h.Release()
	if v := reg.Snapshot()["viewseeker_session_rehydrations_total"]; v < 1 {
		t.Errorf("rehydrations = %v, want >= 1", v)
	}
}

// TestAdmissionShed checks the shedding state: when every resident
// session is busy (acquired) and the unevictable total exceeds the hard
// limit, AdmitNew and cold Acquires refuse with *Overload, and recover
// once the handles release.
func TestAdmissionShed(t *testing.T) {
	table := diab(t)
	sk, err := buildFrom(table)(context.Background(), createRecord("sizer"))
	if err != nil {
		t.Fatal(err)
	}
	per := sk.MemoryBytes()
	// Budget + headroom below two sessions, so two busy sessions trip the
	// hard limit.
	m := NewManager(Config{BudgetBytes: per})
	reg := obs.NewRegistry()
	m.Instrument(reg)

	putSession(t, m, table, "a")
	putSession(t, m, table, "b")
	// Index a cold session to probe the rehydration path.
	m.Index("cold", store.SessionLog{Create: createRecord("cold")}, buildFrom(table))

	ha, err := m.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := m.Acquire(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}

	var ov *Overload
	if err := m.AdmitNew(); !errors.As(err, &ov) {
		t.Fatalf("AdmitNew with busy set over limit = %v, want *Overload", err)
	}
	if ov.RetryAfter != retryAfter {
		t.Errorf("RetryAfter = %v", ov.RetryAfter)
	}
	if _, err := m.Acquire(context.Background(), "cold"); !errors.As(err, &ov) {
		t.Fatalf("cold Acquire under pressure = %v, want *Overload", err)
	}
	if st := m.Stats(); st.State != "shedding" {
		t.Errorf("state = %q, want shedding", st.State)
	}
	snap := reg.Snapshot()
	if snap[`viewseeker_session_shed_total{route="create"}`] != 1 ||
		snap[`viewseeker_session_shed_total{route="rehydrate"}`] != 1 {
		t.Errorf("shed counters = %v", snap)
	}

	ha.Release()
	hb.Release()
	// Idle again: eviction can make room, admission recovers.
	if err := m.AdmitNew(); err != nil {
		t.Fatalf("AdmitNew after release = %v", err)
	}
	if h, err := m.Acquire(context.Background(), "cold"); err != nil {
		t.Fatalf("cold Acquire after release = %v", err)
	} else {
		h.Release()
	}
}

// TestEvictIdleSparesInFlight: EvictIdle — the budget-free stop condition
// of the shared eviction walk — drops every idle session but never one
// serving a request, which goes on the next walk once released.
func TestEvictIdleSparesInFlight(t *testing.T) {
	table := diab(t)
	m := NewManager(Config{})
	putSession(t, m, table, "idle")
	putSession(t, m, table, "busy")
	h, err := m.Acquire(context.Background(), "busy")
	if err != nil {
		t.Fatal(err)
	}
	busy := h.Seeker()
	if n := m.EvictIdle(); n != 1 {
		t.Fatalf("EvictIdle evicted %d sessions, want only the idle one", n)
	}
	if h.Seeker() != busy {
		t.Fatal("in-flight session lost its seeker")
	}
	h.Release()
	if n := m.EvictIdle(); n != 1 {
		t.Fatalf("EvictIdle after release evicted %d, want 1", n)
	}
	if st := m.Stats(); st.Resident != 0 || st.Cold != 2 || st.ResidentBytes != 0 {
		t.Fatalf("stats after evicting everything: %+v", st)
	}
}

func TestDeleteAndUnknown(t *testing.T) {
	table := diab(t)
	m := NewManager(Config{})
	putSession(t, m, table, "gone")
	m.Index("cold", store.SessionLog{Create: createRecord("cold")}, buildFrom(table))

	if !m.Delete("gone") || !m.Delete("cold") {
		t.Fatal("Delete returned false for registered sessions")
	}
	if m.Delete("gone") {
		t.Fatal("double Delete returned true")
	}
	if m.Has("gone") || m.Has("cold") {
		t.Fatal("deleted sessions still registered")
	}
	if _, err := m.Acquire(context.Background(), "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire deleted = %v, want ErrNotFound", err)
	}
	if st := m.Stats(); st.Resident != 0 || st.Cold != 0 || st.ResidentBytes != 0 {
		t.Fatalf("stats after delete = %+v", st)
	}
}

// TestRehydrateErrorStaysCold: a failed rebuild (cancelled context) leaves
// the entry cold and retryable.
func TestRehydrateErrorStaysCold(t *testing.T) {
	table := diab(t)
	m := NewManager(Config{})
	m.Index("s", store.SessionLog{Create: createRecord("s")}, buildFrom(table))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Acquire(ctx, "s"); err == nil {
		t.Fatal("Acquire with cancelled ctx succeeded")
	}
	if st := m.Stats(); st.Cold != 1 || st.Resident != 0 {
		t.Fatalf("stats after failed rehydrate = %+v", st)
	}
	h, err := m.Acquire(context.Background(), "s")
	if err != nil {
		t.Fatalf("retry after failed rehydrate: %v", err)
	}
	h.Release()
}

// TestRehydrationBacklogShed: while the rehydration backlog is full, a
// cold Acquire and AdmitNew refuse with *Overload naming the backlog, and
// both recover once the in-flight rebuild finishes.
func TestRehydrationBacklogShed(t *testing.T) {
	table := diab(t)
	m := NewManager(Config{})
	m.maxRehydrations = 1
	reg := obs.NewRegistry()
	m.Instrument(reg)

	started := make(chan struct{})
	unblock := make(chan struct{})
	blocking := func(ctx context.Context, c store.Record) (*viewseeker.Seeker, error) {
		close(started)
		<-unblock
		return buildFrom(table)(ctx, c)
	}
	m.Index("slow", store.SessionLog{Create: createRecord("slow")}, blocking)
	m.Index("cold", store.SessionLog{Create: createRecord("cold")}, buildFrom(table))

	done := make(chan error, 1)
	go func() {
		h, err := m.Acquire(context.Background(), "slow")
		if err == nil {
			h.Release()
		}
		done <- err
	}()
	<-started

	const reason = "rehydration backlog full"
	var ov *Overload
	if err := m.AdmitNew(); !errors.As(err, &ov) || ov.Reason != reason {
		t.Fatalf("AdmitNew with full backlog = %v, want *Overload %q", err, reason)
	}
	if _, err := m.Acquire(context.Background(), "cold"); !errors.As(err, &ov) || ov.Reason != reason {
		t.Fatalf("cold Acquire with full backlog = %v, want *Overload %q", err, reason)
	}
	snap := reg.Snapshot()
	if snap[`viewseeker_session_shed_total{route="create"}`] != 1 ||
		snap[`viewseeker_session_shed_total{route="rehydrate"}`] != 1 {
		t.Errorf("shed counters = %v", snap)
	}

	close(unblock)
	if err := <-done; err != nil {
		t.Fatalf("blocked rehydration = %v", err)
	}
	if err := m.AdmitNew(); err != nil {
		t.Fatalf("AdmitNew after the backlog drained = %v", err)
	}
	h, err := m.Acquire(context.Background(), "cold")
	if err != nil {
		t.Fatalf("cold Acquire after the backlog drained = %v", err)
	}
	h.Release()
}

// TestConcurrentAcquire hammers one manager from many goroutines with a
// tiny budget: meant for -race; correctness checks are that every
// operation either succeeds or sheds, never corrupts.
func TestConcurrentAcquire(t *testing.T) {
	table := diab(t)
	sk, err := buildFrom(table)(context.Background(), createRecord("sizer"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{BudgetBytes: sk.MemoryBytes() * 2})
	// Four sessions cycle through at most four concurrent rebuilds, so a
	// cap of two lets the backlog shed fire under -race.
	m.maxRehydrations = 2
	for i := 0; i < 4; i++ {
		putSession(t, m, table, fmt.Sprintf("s%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", g%4)
			for i := 0; i < 10; i++ {
				h, err := m.Acquire(context.Background(), id)
				if err != nil {
					var ov *Overload
					if !errors.As(err, &ov) {
						t.Errorf("Acquire(%s) = %v", id, err)
						return
					}
					continue
				}
				_ = h.Seeker().TopK()
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Resident+st.Cold != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// Has reports whether id is registered (resident or cold).
func (m *Manager) Has(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[id] != nil
}
