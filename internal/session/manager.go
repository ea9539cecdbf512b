package session

import (
	"container/list"
	"context"
	"fmt"
	"time"

	"sync"

	"viewseeker"
	"viewseeker/internal/obs"
	"viewseeker/internal/store"
)

// BuildFunc rebuilds a session's seeker from its journalled create record:
// the rehydration path. The closure is captured when the session is
// registered, so it pins everything replay depends on — the table version
// the session was created on, or the exact offline version a maintained
// live-table session was minted from (live tables advance under the
// server, journal replay must not). Feedback replay is the manager's job;
// Build only attaches a fresh overlay to the session's offline version,
// normally via viewseeker.NewCtx through the shared offline-result cache.
type BuildFunc func(ctx context.Context, create store.Record) (*viewseeker.Seeker, error)

// Config sizes a Manager. The zero value is an unbudgeted manager:
// sessions stay resident forever and admission always succeeds — exactly
// the pre-budget server behaviour.
type Config struct {
	// BudgetBytes caps the accounted resident bytes across all sessions
	// (0 = unbudgeted). When the total exceeds it, idle sessions are
	// evicted coldest-first; sessions currently serving a request are
	// never evicted, so the total can exceed the budget by the working
	// set of in-flight requests.
	BudgetBytes int64
	// HeadroomFraction sets the shed threshold above the budget: when the
	// unevictable resident bytes exceed BudgetBytes × (1 +
	// HeadroomFraction), new sessions and rehydrations are refused with
	// *Overload. ≤ 0 selects DefaultHeadroomFraction.
	HeadroomFraction float64
	// MaxRehydrations bounds concurrent journal replays; a cold touch
	// past the bound is refused with *Overload instead of queueing
	// unbounded rebuild work behind a burst. ≤ 0 selects
	// DefaultMaxRehydrations.
	MaxRehydrations int
	// RetryAfter is the client backoff hint carried by *Overload (and the
	// HTTP Retry-After header upstream). ≤ 0 selects DefaultRetryAfter.
	RetryAfter time.Duration
}

// Defaults for the Config knobs.
const (
	DefaultHeadroomFraction = 0.5
	DefaultMaxRehydrations  = 4
	DefaultRetryAfter       = time.Second
)

// Overload is the admission-control refusal: the manager cannot take the
// work right now, and the client should retry after RetryAfter. The
// server maps it to 429 with a Retry-After header.
type Overload struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *Overload) Error() string {
	return fmt.Sprintf("session manager overloaded: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// ErrNotFound reports an id the manager has never seen (or has deleted).
var ErrNotFound = fmt.Errorf("session: unknown session")

// Manager owns the server's interactive sessions under a memory budget:
// every resident session carries an accounted byte estimate
// (viewseeker.Seeker.MemoryBytes plus its journal mirror), the coldest
// idle sessions are evicted once the total exceeds Config.BudgetBytes,
// and an evicted session is rebuilt transparently on its next touch by
// replaying its journalled create + feedback records (bit-identical by
// the determinism contract, DESIGN.md §8). All methods are safe for
// concurrent use; the Handle returned by Acquire serialises the
// individual session exactly like the per-session mutex it replaces.
type Manager struct {
	cfg Config

	mu          sync.Mutex
	entries     map[string]*entry
	lru         *list.List // *entry values; front = coldest resident
	resident    int64      // accounted bytes of resident sessions
	rehydrating int        // in-flight journal replays

	// Metric handles; registered against a private registry until
	// Instrument re-points them, so they are never nil.
	mEvictions     *obs.Counter
	mRehydrations  *obs.Counter
	mShedCreate    *obs.Counter
	mShedRehydrate *obs.Counter
	mRehydrateSecs *obs.Histogram
	gResidentBytes *obs.Gauge
	gResident      *obs.Gauge
	gCold          *obs.Gauge
}

// entry is one session: its journal mirror (always resident — tens of
// bytes per label), and its in-RAM state (seeker), which eviction drops.
type entry struct {
	// mu serialises the session's operations; Acquire locks it for the
	// lifetime of the Handle, so handlers see the same one-writer view
	// the old per-session mutex gave them.
	mu sync.Mutex

	id    string
	log   store.SessionLog // create + feedback records: the journal pointer
	build BuildFunc

	// The fields below are guarded by the Manager's mu, except seeker,
	// which is additionally read/written under e.mu by the holder while
	// refs > 0 (eviction only touches entries with refs == 0, and refs is
	// guarded by m.mu, so the two writers never overlap).
	seeker *viewseeker.Seeker // nil while cold
	bytes  int64              // accounted estimate while resident
	refs   int                // in-flight Acquires; > 0 bars eviction
	elem   *list.Element      // LRU position; nil while cold
}

// NewManager returns a manager for the config.
func NewManager(cfg Config) *Manager {
	if cfg.HeadroomFraction <= 0 {
		cfg.HeadroomFraction = DefaultHeadroomFraction
	}
	if cfg.MaxRehydrations <= 0 {
		cfg.MaxRehydrations = DefaultMaxRehydrations
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	m := &Manager{
		cfg:     cfg,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
	m.Instrument(obs.NewRegistry())
	return m
}

// Instrument registers the manager's metrics against reg: eviction,
// rehydration and shed counters, the rehydration latency histogram, and
// the resident-bytes / resident / cold gauges. Call once at wiring time.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mEvictions = reg.Counter("viewseeker_session_evictions_total")
	m.mRehydrations = reg.Counter("viewseeker_session_rehydrations_total")
	m.mShedCreate = reg.Counter(`viewseeker_session_shed_total{route="create"}`)
	m.mShedRehydrate = reg.Counter(`viewseeker_session_shed_total{route="rehydrate"}`)
	m.mRehydrateSecs = reg.Histogram("viewseeker_session_rehydration_seconds", obs.DurationBuckets)
	m.gResidentBytes = reg.Gauge("viewseeker_session_resident_bytes")
	m.gResident = reg.Gauge("viewseeker_session_resident")
	m.gCold = reg.Gauge("viewseeker_session_cold")
	m.updateGaugesLocked()
}

// BudgetBytes returns the configured budget (0 = unbudgeted).
func (m *Manager) BudgetBytes() int64 { return m.cfg.BudgetBytes }

// hardLimitLocked is the shed threshold: budget plus headroom.
func (m *Manager) hardLimitLocked() int64 {
	return m.cfg.BudgetBytes + int64(float64(m.cfg.BudgetBytes)*m.cfg.HeadroomFraction)
}

func (m *Manager) updateGaugesLocked() {
	m.gResidentBytes.Set(m.resident)
	m.gResident.Set(int64(m.lru.Len()))
	m.gCold.Set(int64(len(m.entries) - m.lru.Len()))
}

// evictLocked sheds idle resident sessions coldest-first until the
// accounted total is back under the budget (or nothing evictable
// remains), returning how many were dropped.
func (m *Manager) evictLocked() int {
	if m.cfg.BudgetBytes <= 0 {
		return 0
	}
	return m.evictDownToLocked(m.cfg.BudgetBytes)
}

// evictDownToLocked is the one eviction walk: idle resident sessions go
// coldest-first while the accounted total exceeds limit (a negative limit
// drops every idle session). The seeker — its overlay, its estimator and
// its references into the shared offline version — is released to the
// collector; the journal mirror stays, so the next touch rehydrates.
func (m *Manager) evictDownToLocked(limit int64) int {
	evicted := 0
	for el := m.lru.Front(); el != nil && m.resident > limit; {
		next := el.Next()
		if e := el.Value.(*entry); e.refs == 0 {
			e.seeker = nil
			m.resident -= e.bytes
			e.bytes = 0
			m.lru.Remove(el)
			e.elem = nil
			m.mEvictions.Inc()
			evicted++
		}
		el = next
	}
	if evicted > 0 {
		m.updateGaugesLocked()
	}
	return evicted
}

// overloadedLocked evaluates the shed condition after an eviction pass:
// the unevictable resident bytes still exceed the hard limit, or the
// rehydration backlog is full.
func (m *Manager) overloadedLocked() *Overload {
	if m.rehydrating >= m.cfg.MaxRehydrations {
		return &Overload{Reason: "rehydration backlog full", RetryAfter: m.cfg.RetryAfter}
	}
	if m.cfg.BudgetBytes > 0 && m.resident > m.hardLimitLocked() {
		return &Overload{Reason: "session memory budget exhausted", RetryAfter: m.cfg.RetryAfter}
	}
	return nil
}

// AdmitNew is the admission check for creating a session, run before the
// offline phase is paid: it evicts idle sessions first, then refuses with
// *Overload when the remaining (in-flight, unevictable) resident bytes
// still exceed the hard limit or the rehydration backlog is full.
func (m *Manager) AdmitNew() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictLocked()
	if ov := m.overloadedLocked(); ov != nil {
		m.mShedCreate.Inc()
		return ov
	}
	return nil
}

// Put registers a freshly built resident session under id, reporting
// false when the id is already taken (the caller picks another). create
// must be the session's journalled create record; build is the
// rehydration closure. Registration may push the total over budget, in
// which case older idle sessions are evicted immediately — and at a budget
// smaller than one session, the new session itself may be dropped the
// moment it goes idle.
func (m *Manager) Put(id string, create store.Record, build BuildFunc, sk *viewseeker.Seeker) bool {
	bytes := sk.MemoryBytes() + logBytes(store.SessionLog{Create: create})
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, taken := m.entries[id]; taken {
		return false
	}
	e := &entry{id: id, log: store.SessionLog{Create: create}, build: build, seeker: sk, bytes: bytes}
	m.entries[id] = e
	e.elem = m.lru.PushBack(e)
	m.resident += bytes
	m.evictLocked()
	m.updateGaugesLocked()
	return true
}

// Index registers a cold session: the journal mirror and rehydration
// closure only, no in-RAM state. This is the lazy-restore path — a large
// journal indexes in O(records) without paying a single offline phase;
// each session rebuilds on its first touch.
func (m *Manager) Index(id string, log store.SessionLog, build BuildFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[id] = &entry{id: id, log: log, build: build}
	m.updateGaugesLocked()
}

// Handle is an acquired session: the session's operations are serialised
// for as long as the handle is held. Release it exactly once.
type Handle struct {
	m *Manager
	e *entry
}

// Acquire locks the session for the caller, rehydrating it first when it
// was evicted (or indexed cold): the build closure reconstructs the
// offline state through the result cache and the journalled labels are
// replayed — bit-identical to the unevicted session by the determinism
// contract. Errors: ErrNotFound for unknown ids; *Overload when the
// budget is hot or the rehydration backlog is full (the caller answers
// 429); the context's error when ctx dies mid-rebuild (the entry stays
// cold, a retry rehydrates); any build/replay error otherwise.
func (m *Manager) Acquire(ctx context.Context, id string) (*Handle, error) {
	m.mu.Lock()
	e := m.entries[id]
	if e == nil {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	e.refs++
	if e.elem != nil {
		m.lru.MoveToBack(e.elem)
	}
	m.mu.Unlock()

	e.mu.Lock()
	if e.seeker != nil {
		return &Handle{m: m, e: e}, nil
	}
	if err := m.rehydrate(ctx, e); err != nil {
		e.mu.Unlock()
		m.release(e)
		return nil, err
	}
	return &Handle{m: m, e: e}, nil
}

// rehydrate rebuilds e's seeker under e.mu (held by the caller): replay
// of a session is serialised against its own requests exactly like any
// other operation on it.
func (m *Manager) rehydrate(ctx context.Context, e *entry) error {
	m.mu.Lock()
	m.evictLocked()
	if ov := m.overloadedLocked(); ov != nil {
		m.mShedRehydrate.Inc()
		m.mu.Unlock()
		return ov
	}
	m.rehydrating++
	m.mu.Unlock()
	start := time.Now()
	sk, err := e.build(ctx, e.log.Create)
	if err == nil {
		for i, fb := range e.log.Feedback {
			if ferr := sk.Feedback(fb.View, fb.Label); ferr != nil {
				err = fmt.Errorf("replaying label %d: %w", i, ferr)
				break
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rehydrating--
	if err != nil {
		// The entry stays cold: a cancelled rebuild retries on the next
		// touch, and a genuinely broken log keeps failing loudly instead
		// of being silently dropped.
		return err
	}
	e.seeker = sk
	e.bytes = sk.MemoryBytes() + logBytes(e.log)
	m.resident += e.bytes
	e.elem = m.lru.PushBack(e)
	m.mRehydrations.Inc()
	m.mRehydrateSecs.ObserveDuration(time.Since(start))
	m.evictLocked()
	m.updateGaugesLocked()
	return nil
}

// release drops one Acquire reference.
func (m *Manager) release(e *entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.refs--
	// The entry just went idle: if a burst pushed the total over budget
	// while it was unevictable, settle now.
	if e.refs == 0 {
		m.evictLocked()
		m.updateGaugesLocked()
	}
}

// Seeker returns the resident seeker (never nil while the handle is held).
func (h *Handle) Seeker() *viewseeker.Seeker { return h.e.seeker }

// Create returns the session's journalled create record.
func (h *Handle) Create() store.Record { return h.e.log.Create }

// RecordFeedback mirrors one journalled feedback record into the entry's
// replay log — the write that makes a later eviction transparent — and
// re-accounts the session's bytes (feedback grows the estimator state and
// may have materialised generator scans).
func (h *Handle) RecordFeedback(view int, label float64) {
	e := h.e
	e.log.Feedback = append(e.log.Feedback, store.Record{
		Op: store.OpFeedback, Session: e.id, View: view, Label: label,
	})
	bytes := e.seeker.MemoryBytes() + logBytes(e.log)
	h.m.mu.Lock()
	h.m.resident += bytes - e.bytes
	e.bytes = bytes
	h.m.evictLocked()
	h.m.updateGaugesLocked()
	h.m.mu.Unlock()
}

// Release unlocks the session and drops the acquire reference.
func (h *Handle) Release() {
	h.e.mu.Unlock()
	h.m.release(h.e)
}

// Delete removes a session (resident or cold), reporting whether it
// existed. A session currently serving a request is removed from the
// index immediately; its in-flight handle stays valid until released.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[id]
	if !ok {
		return false
	}
	delete(m.entries, id)
	if e.elem != nil {
		m.lru.Remove(e.elem)
		m.resident -= e.bytes
		e.elem = nil
	}
	m.updateGaugesLocked()
	return true
}

// Has reports whether id is registered (resident or cold).
func (m *Manager) Has(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[id] != nil
}

// EvictIdle drops every idle resident session regardless of the budget,
// returning how many were evicted — the operator/test hook behind
// Server.EvictIdleSessions and its bit-identity test.
func (m *Manager) EvictIdle() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictDownToLocked(-1)
}

// Stats is the manager's state snapshot for GET /healthz.
type Stats struct {
	// BudgetBytes is the configured budget (0 = unbudgeted).
	BudgetBytes int64 `json:"budgetBytes"`
	// ResidentBytes is the accounted total across resident sessions.
	ResidentBytes int64 `json:"residentBytes"`
	// Resident / Cold split the registered sessions by whether their
	// in-RAM state is materialised.
	Resident int `json:"resident"`
	Cold     int `json:"cold"`
	// State is the admission-control state: "accepting" (under budget),
	// "evicting" (over budget, eviction keeping up), or "shedding" (new
	// sessions and rehydrations are refused with 429).
	State string `json:"state"`
	// Lifetime counters, mirroring the /metricz series of the same names.
	Evictions    int64 `json:"evictions"`
	Rehydrations int64 `json:"rehydrations"`
	Shed         int64 `json:"shed"`
}

// Stats snapshots the manager.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		BudgetBytes:   m.cfg.BudgetBytes,
		ResidentBytes: m.resident,
		Resident:      m.lru.Len(),
		Cold:          len(m.entries) - m.lru.Len(),
		State:         "accepting",
		Evictions:     m.mEvictions.Value(),
		Rehydrations:  m.mRehydrations.Value(),
		Shed:          m.mShedCreate.Value() + m.mShedRehydrate.Value(),
	}
	if m.overloadedLocked() != nil {
		st.State = "shedding"
	} else if m.cfg.BudgetBytes > 0 && m.resident > m.cfg.BudgetBytes {
		st.State = "evicting"
	}
	return st
}

// logBytes estimates the resident cost of a session's journal mirror, so
// long conversations account for their label history too.
func logBytes(log store.SessionLog) int64 {
	return recordBytes(log.Create) + int64(len(log.Feedback))*recordBytes(store.Record{})
}

func recordBytes(rec store.Record) int64 {
	const structBytes = 7*16 + 5*8 // 7 string headers' worth of fields + numeric fields, rounded up
	return structBytes + int64(len(rec.Op)+len(rec.Session)+len(rec.Table)+len(rec.Query)+len(rec.Strategy))
}
