package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"

	"viewseeker"
)

// maintainerConcurrency bounds how many tables' maintenance passes run at
// once across the whole server: an advance pass can rescan a table, so a
// burst of appends to many tables must not fan out into unbounded CPU.
const maintainerConcurrency = 2

// maintainedPerTableMax caps the maintained offline states hosted per
// table: each distinct exploration query clients open exact sessions for
// gets one, and past the cap new queries fall back to the cold path
// instead of growing server memory without bound.
const maintainedPerTableMax = 32

// maintainer keeps one live table's hosted offline states current. It owns
// a single goroutine that waits on coalesced append notifications and
// drives Maintained.Advance over every hosted state — so by the time a
// client opens its next session, the offline work is already done and the
// session is served warm at the newest version.
//
// Backpressure is by coalescing: notify has capacity 1, so any burst of
// appends during a pass collapses into one follow-up pass over the newest
// version (Advance folds all pending rows at once). Nothing ever queues
// unboundedly and notifiers never block.
type maintainer struct {
	s    *Server
	name string
	lt   *viewseeker.LiveTable

	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}

	mu         sync.Mutex
	maintained map[string]*viewseeker.Maintained // keyed by exploration query
}

func newMaintainer(s *Server, name string, lt *viewseeker.LiveTable) *maintainer {
	mt := &maintainer{
		s: s, name: name, lt: lt,
		notify:     make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		maintained: make(map[string]*viewseeker.Maintained),
	}
	go mt.loop()
	return mt
}

// wake requests a maintenance pass; a pass already pending absorbs it.
func (mt *maintainer) wake() {
	select {
	case mt.notify <- struct{}{}:
	default:
	}
}

func (mt *maintainer) loop() {
	defer close(mt.done)
	for {
		select {
		case <-mt.stop:
			return
		case <-mt.notify:
		}
		select {
		case mt.s.maintSem <- struct{}{}:
		case <-mt.stop:
			return
		}
		mt.runPass()
		<-mt.s.maintSem
	}
}

// runPass advances every hosted state to the table's current version.
func (mt *maintainer) runPass() {
	mt.mu.Lock()
	states := make([]*viewseeker.Maintained, 0, len(mt.maintained))
	queries := make([]string, 0, len(mt.maintained))
	for q, m := range mt.maintained {
		states = append(states, m)
		queries = append(queries, q)
	}
	mt.mu.Unlock()
	for i, m := range states {
		mt.advance(queries[i], m)
	}
}

// advance drives one state forward with panic isolation: a bug in one
// query's maintenance must not take down the maintainer (and with it every
// other query's freshness). A panicking state is evicted — it may be
// mid-mutation — so later sessions for its query rebuild cleanly.
func (mt *maintainer) advance(query string, m *viewseeker.Maintained) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		mt.s.maintPanics.Inc()
		mt.s.log.Error("maintainer panic", "table", mt.name, "query", query,
			"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
		mt.mu.Lock()
		if mt.maintained[query] == m {
			delete(mt.maintained, query)
		}
		mt.mu.Unlock()
	}()
	before := m.Stats()
	if _, err := m.Advance(); err != nil {
		mt.s.log.Error("maintainer advance failed", "table", mt.name, "query", query, "err", err)
		return
	}
	mt.s.liveRebuilds.Add(int64(m.Stats().Rebuilt - before.Rebuilt))
}

// state returns the hosted Maintained for query, building it on first use.
// ok=false means the per-table cap is reached and the caller should take
// the cold path.
func (mt *maintainer) state(query string) (*viewseeker.Maintained, bool, error) {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if m := mt.maintained[query]; m != nil {
		return m, true, nil
	}
	if len(mt.maintained) >= maintainedPerTableMax {
		return nil, false, nil
	}
	m, err := viewseeker.Maintain(mt.lt, query, viewseeker.Options{})
	if err != nil {
		return nil, false, err
	}
	mt.maintained[query] = m
	return m, true, nil
}

// lag reports how many versions the slowest hosted state trails the table,
// plus how many states are hosted. With nothing hosted the lag is 0 —
// there is no offline state to go stale.
func (mt *maintainer) lag() (lag uint64, hosted int) {
	cur := mt.lt.Seq()
	mt.mu.Lock()
	defer mt.mu.Unlock()
	for _, m := range mt.maintained {
		if s := m.Seq(); cur > s && cur-s > lag {
			lag = cur - s
		}
	}
	return lag, len(mt.maintained)
}

// notifyLive wakes the maintainer for name after an append (no-op for
// tables without one).
func (s *Server) notifyLive(name string) {
	s.mu.Lock()
	mt := s.maintainers[name]
	s.mu.Unlock()
	if mt != nil {
		mt.wake()
	}
}

// Close stops every table maintainer and waits for in-flight maintenance
// passes to finish. The server keeps serving requests — Close only ends
// background maintenance; it does not close the hosted live tables, which
// stay owned by whoever opened them. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	mts := make([]*maintainer, 0, len(s.maintainers))
	for _, mt := range s.maintainers {
		mts = append(mts, mt)
	}
	s.mu.Unlock()
	for _, mt := range mts {
		close(mt.stop)
	}
	for _, mt := range mts {
		<-mt.done
	}
}

// checkpointResponse is the POST /api/tables/{name}/checkpoint body. Seq 0
// means there was nothing to checkpoint (no appends since the last one, or
// one already in flight).
type checkpointResponse struct {
	Seq uint64 `json:"seq"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	lt := s.live[name]
	s.mu.Unlock()
	if lt == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no live table %q", name))
		return
	}
	seq, err := lt.Checkpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{Seq: seq})
}
