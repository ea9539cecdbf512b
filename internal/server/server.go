package server

import (
	"bytes"
	"context"
	"crypto/rand"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"viewseeker"
	"viewseeker/internal/obs"
	"viewseeker/internal/session"
	"viewseeker/internal/store"
)

//go:embed index.html
var indexHTML []byte

// Options configures the server's durability layer. The zero value is a
// fully in-memory server with a session-shared offline-result cache.
type Options struct {
	// Cache is the offline-result store shared by every session; nil
	// builds a default in-memory cache (sharing the offline phase across
	// sessions is always safe — entries are content-addressed).
	Cache *store.Cache
	// Journal, when non-nil, receives every session lifecycle event
	// (create, feedback, delete) so sessions survive a restart via
	// RestoreSessions.
	Journal *store.Journal
	// MaxBodyBytes caps POST request bodies (default 1 MiB); oversized
	// requests get 413.
	MaxBodyBytes int64
	// RefineHook, when non-nil, is passed to every session's incremental
	// refiner: it is called once per feature row refreshed during feedback
	// handling (see viewseeker.Options.RefineHook). Tests use it to observe
	// that a cancelled request stops refinement promptly.
	RefineHook func(viewIdx int)
	// Metrics is the observability registry exported at GET /metricz; nil
	// builds a fresh one — the server is always instrumented, because its
	// request path is never hot enough for the registry to matter. The cache
	// and journal are instrumented against it, so sharing a cache across
	// servers with distinct registries leaves the handles pointing at
	// whichever server instrumented it last.
	Metrics *obs.Registry
	// Tracer receives the server's phase spans (offline, select, feedback);
	// nil builds a default 64-entry ring. Recent traces are exported at
	// GET /debug/vars.
	Tracer *obs.Tracer
	// Logger receives structured request and error logs; nil uses
	// slog.Default(). Every line carries the request id the server also
	// returns in the X-Request-Id response header.
	Logger *slog.Logger
	// SessionBudgetBytes caps the accounted resident bytes across all
	// interactive sessions (0 = unbudgeted, the historical behaviour).
	// Over budget, the coldest idle sessions are evicted — their in-RAM
	// state dropped, their journal mirror kept — and rebuilt transparently
	// on the next touch; when even eviction cannot make room, new sessions
	// and rehydrations are refused with 429 + Retry-After. See DESIGN.md
	// §16 and internal/session.
	SessionBudgetBytes int64
}

// defaultMaxBodyBytes bounds POST bodies: session configs and feedback
// records are tiny, so 1 MiB is generous headroom for long SQL queries
// while keeping memory per request bounded.
const defaultMaxBodyBytes = 1 << 20

// Server hosts tables and interactive sessions. All methods are safe for
// concurrent use; individual sessions serialise their own operations.
type Server struct {
	mu     sync.Mutex
	tables map[string]*viewseeker.Table
	live   map[string]*viewseeker.LiveTable

	// sessions owns the interactive sessions under the memory budget:
	// per-session accounting, LRU eviction, journal-replay rehydration and
	// admission control all live there (internal/session, DESIGN.md §16).
	sessions *session.Manager

	cache      *store.Cache
	journal    *store.Journal
	maxBody    int64
	refineHook func(viewIdx int)

	// maintainers holds one background maintainer per hosted live table
	// (see maintain.go); maintSem bounds how many run a pass concurrently.
	// closed marks Close having run: maintainers are stopped and live
	// tables hosted afterwards get none.
	maintainers map[string]*maintainer
	maintSem    chan struct{}
	closed      bool

	metrics       *obs.Registry
	tracer        *obs.Tracer
	log           *slog.Logger
	inflight      *obs.Gauge
	panics        *obs.Counter
	maintPanics   *obs.Counter
	driftRebuilds *obs.Counter
}

// New builds a server hosting the given tables with default Options.
func New(tables ...*viewseeker.Table) *Server {
	return NewWithOptions(Options{}, tables...)
}

// NewWithOptions builds a server hosting the given tables.
func NewWithOptions(opts Options, tables ...*viewseeker.Table) *Server {
	s := &Server{
		tables:      make(map[string]*viewseeker.Table),
		live:        make(map[string]*viewseeker.LiveTable),
		sessions:    session.NewManager(session.Config{BudgetBytes: opts.SessionBudgetBytes}),
		maintainers: make(map[string]*maintainer),
		maintSem:    make(chan struct{}, maintainerConcurrency),
		cache:       opts.Cache,
		journal:     opts.Journal,
		maxBody:     opts.MaxBodyBytes,
		refineHook:  opts.RefineHook,
		metrics:     opts.Metrics,
		tracer:      opts.Tracer,
		log:         opts.Logger,
	}
	if s.cache == nil {
		s.cache = store.NewCache(0)
	}
	if s.maxBody <= 0 {
		s.maxBody = defaultMaxBodyBytes
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(0)
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.inflight = s.metrics.Gauge("viewseeker_server_inflight_requests")
	s.panics = s.metrics.Counter("viewseeker_server_panics_total")
	s.maintPanics = s.metrics.Counter("viewseeker_server_maintainer_panics_total")
	s.driftRebuilds = s.metrics.Counter("viewseeker_live_drift_rebuilds_total")
	s.cache.Instrument(s.metrics)
	s.sessions.Instrument(s.metrics)
	if s.journal != nil {
		s.journal.Instrument(s.metrics)
	}
	for _, t := range tables {
		s.tables[t.Name] = t
		// Hash now: the hash is memoized on the table, so warm session
		// creation never rehashes the dataset.
		viewseeker.HashTable(t)
	}
	return s
}

// Metrics exposes the server's observability registry — the one backing
// GET /metricz — so embedding commands (cmd/serve, cmd/bench) can read the
// same counters the endpoint exports.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Tracer exposes the server's span tracer (cmd/serve points its sink at
// the -trace-log file).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// newSessionID returns an unguessable random session id: session ids are
// the only credential guarding a session's state, so they must not be
// enumerable the way sequential ids are. An entropy failure is returned as
// an error — the handler surfaces it as a 500 rather than crashing the
// process or handing out a predictable id; the panic-recovery middleware
// is the backstop for bugs, not part of this contract.
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: reading session id entropy: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// journalAppend best-effort records one session event: journal write
// failures must not fail user requests, but they do cost restart
// durability, so they are logged.
func (s *Server) journalAppend(rec store.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.log.Error("journal append failed", "op", rec.Op, "session", rec.Session, "err", err)
	}
}

// decodeBody decodes a size-capped JSON POST body, distinguishing an
// oversized request (413) from a malformed one (400).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// Handler returns the HTTP handler serving the UI and the API. Every route
// is registered through the instrumentation middleware (request ids,
// per-route latency and status metrics, structured access logs) and the
// whole mux is wrapped in panic recovery.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	handle("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(indexHTML)
	})
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metricz", s.handleMetricz)
	handle("GET /debug/vars", s.handleVars)
	handle("GET /api/tables", s.handleTables)
	handle("POST /api/tables/{name}/append", s.handleAppend)
	handle("POST /api/tables/{name}/checkpoint", s.handleCheckpoint)
	handle("POST /api/sessions", s.handleCreateSession)
	handle("GET /api/sessions/{id}", s.withSession(s.handleSessionInfo))
	handle("GET /api/sessions/{id}/next", s.withSession(s.handleNext))
	handle("POST /api/sessions/{id}/feedback", s.withSession(s.handleFeedback))
	handle("GET /api/sessions/{id}/top", s.withSession(s.handleTop))
	handle("GET /api/sessions/{id}/weights", s.withSession(s.handleWeights))
	handle("GET /api/sessions/{id}/views/{index}/svg", s.withSession(s.handleViewSVG))
	handle("GET /api/sessions/{id}/views/{index}/explain", s.withSession(s.handleViewExplain))
	handle("DELETE /api/sessions/{id}", s.handleDeleteSession)
	return s.recoverPanics(mux)
}

// requestIDKey carries the per-request id through the request context.
type requestIDKey struct{}

// RequestIDFrom returns the request id the instrumentation middleware
// assigned ("" outside a request context). Handlers and hooks use it to
// correlate their own logs with the server's access lines.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusWriter records the status code a handler writes (200 when it
// writes a body without an explicit WriteHeader).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps one route's handler with the server's observability:
// it assigns a request id (honouring an incoming X-Request-Id, so ids
// thread through proxies), threads the registry and tracer into the
// request context — which is what lights up the offline, store and
// active-loop metrics on the paths below the handler — and records the
// route-labelled latency histogram, status-labelled request counter,
// in-flight gauge, and a structured access log line.
//
// The route label is the mux pattern, resolved once at registration: the
// histogram handle costs nothing per request, and patterns (not raw
// paths) keep the label cardinality fixed.
func (s *Server) instrument(route string, next http.Handler) http.Handler {
	hist := s.metrics.Histogram(fmt.Sprintf("viewseeker_server_request_seconds{route=%q}", route), obs.DurationBuckets)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id, _ = newSessionID() // entropy failure leaves id empty; never fatal
		}
		w.Header().Set("X-Request-Id", id)
		ctx := obs.NewContext(r.Context(), s.metrics, s.tracer)
		ctx = context.WithValue(ctx, requestIDKey{}, id)
		sw := &statusWriter{ResponseWriter: w}
		s.inflight.Inc()
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		s.inflight.Dec()
		hist.ObserveDuration(elapsed)
		s.metrics.Counter(fmt.Sprintf("viewseeker_server_requests_total{route=%q,code=\"%d\"}", route, sw.status())).Inc()
		s.log.Info("request",
			"id", id, "method", r.Method, "path", r.URL.Path,
			"route", route, "status", sw.status(), "duration", elapsed)
	})
}

// recoverPanics converts a handler panic into a logged stack plus a 500,
// instead of killing the whole process (and with it every other session).
// http.ErrAbortHandler is re-raised: it is net/http's sanctioned way to
// abort a response and must keep its meaning.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.panics.Inc()
			s.log.Error("panic serving request",
				"id", RequestIDFrom(r.Context()), "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			// Best effort: if the handler already wrote a status line this
			// header is a no-op, but the connection still closes with the
			// truncated body rather than the process dying.
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
		}()
		next.ServeHTTP(w, r)
	})
}

// handleMetricz serves the registry in Prometheus text exposition format.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// handleVars serves an expvar-style JSON dump of every metric plus the
// tracer's recent root spans — the debugging view of the same data
// /metricz exports for scraping.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	var metrics bytes.Buffer
	_ = s.metrics.WriteJSON(&metrics)
	traces := s.tracer.Recent()
	if traces == nil {
		traces = []*obs.SpanData{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"metrics": json.RawMessage(metrics.Bytes()),
		"traces":  traces,
	})
}

// healthComponent is one durability component's state in GET /healthz.
type healthComponent struct {
	// Enabled reports whether the component is configured at all (a
	// journal is optional; the cache may be memory-only).
	Enabled bool `json:"enabled"`
	// Degraded reports whether the component's last disk write exhausted
	// its retries: the server keeps serving, but without durability.
	Degraded bool `json:"degraded"`
}

// healthResponse is the GET /healthz body. Status is "ok" or "degraded" —
// degraded means the server answers every request correctly but some
// state written now would not survive a restart.
type healthResponse struct {
	Status   string          `json:"status"`
	Journal  healthComponent `json:"journal"`
	Cache    healthComponent `json:"cache"`
	Sessions int             `json:"sessions"`
	// SessionManager is the memory-budgeted lifecycle state (DESIGN.md
	// §16): budget and accounted resident bytes, the resident/cold split,
	// the admission-control state (accepting / evicting / shedding) and
	// the lifetime eviction, rehydration and shed counts.
	SessionManager session.Stats `json:"sessionManager"`
	// Live lists each hosted live table's WAL state (omitted when none are
	// hosted); the fsync latency histogram and recovery counters live on
	// /metricz under the viewseeker_wal_* series.
	Live []liveStatus `json:"live,omitempty"`
}

// Degraded reports whether any configured durability component is
// currently failing its disk writes.
func (s *Server) Degraded() bool {
	if s.journal != nil && s.journal.Degraded() {
		return true
	}
	return s.cache.Degraded()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sm := s.sessions.Stats()
	resp := healthResponse{
		Status:         "ok",
		Journal:        healthComponent{Enabled: s.journal != nil},
		Cache:          healthComponent{Enabled: s.cache.DiskBacked()},
		Sessions:       sm.Resident + sm.Cold,
		SessionManager: sm,
		Live:           s.liveStatuses(),
	}
	if s.journal != nil {
		resp.Journal.Degraded = s.journal.Degraded()
	}
	resp.Cache.Degraded = s.cache.Degraded()
	if resp.Journal.Degraded || resp.Cache.Degraded {
		resp.Status = "degraded"
	}
	// Degraded is still 200: the service is serving; load balancers that
	// should drain on lost durability can key off the body.
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// tableInfo describes one hosted table.
type tableInfo struct {
	Name       string   `json:"name"`
	Rows       int      `json:"rows"`
	Dimensions []string `json:"dimensions"`
	Measures   []string `json:"measures"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]tableInfo, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, tableInfo{
			Name: t.Name, Rows: t.NumRows(),
			Dimensions: t.Schema.Dimensions(), Measures: t.Schema.Measures(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

// createSessionRequest is the POST /api/sessions body. Workers bounds the
// offline phase's parallelism for this session (0 = all CPUs); the offline
// feature pass runs outside the server lock, so concurrent session
// creations neither block each other nor the rest of the API.
type createSessionRequest struct {
	Table    string  `json:"table"`
	Query    string  `json:"query"`
	K        int     `json:"k"`
	Alpha    float64 `json:"alpha"`
	Strategy string  `json:"strategy"`
	Seed     int64   `json:"seed"`
	Workers  int     `json:"workers"`
}

type sessionInfo struct {
	ID         string `json:"id"`
	Table      string `json:"table"`
	Query      string `json:"query"`
	NumViews   int    `json:"numViews"`
	NumLabels  int    `json:"numLabels"`
	TargetRows int    `json:"targetRows"`
	// Cached reports whether the session's offline phase was served from
	// the shared offline-result cache instead of being computed.
	Cached bool `json:"cached"`
	// Degraded mirrors GET /healthz: true while any durability component
	// (journal, cache snapshots) is failing its disk writes, so interactive
	// clients learn about lost durability without polling the health
	// endpoint.
	Degraded bool `json:"degraded"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req createSessionRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Admission control runs before the offline phase is paid: when the
	// session budget is exhausted by unevictable (in-flight) sessions, the
	// request is shed up front instead of computing a matrix there is no
	// room to keep.
	if err := s.sessions.AdmitNew(); err != nil {
		writeOverload(w, err)
		return
	}
	table, refHash, seq := s.tableVersion(req.Table)
	if table == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown table %q", req.Table))
		return
	}
	create := store.Record{
		Op: store.OpCreate, Table: req.Table, Query: req.Query,
		K: req.K, Alpha: req.Alpha, Strategy: req.Strategy, Seed: req.Seed,
		Workers: req.Workers,
	}
	seeker, build, err := s.newSeeker(r.Context(), &create, table, refHash, seq)
	if err != nil {
		// A cancelled or timed-out request abandoned its offline phase: that
		// is the server protecting itself, not a bad request, so report it
		// as 503 (the client may retry with a longer deadline).
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := newSessionID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	create.Session = id
	// 64-bit id collisions are theoretical, but free to rule out.
	for !s.sessions.Put(id, create, build, seeker) {
		if id, err = newSessionID(); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		create.Session = id
	}
	s.journalAppend(create)
	writeJSON(w, http.StatusCreated, s.infoOf(id, req.Table, req.Query, seeker))
}

// writeOverload maps the session manager's admission refusal to 429 with
// a Retry-After hint; anything else is an internal error.
func writeOverload(w http.ResponseWriter, err error) {
	var ov *session.Overload
	if errors.As(err, &ov) {
		secs := int(ov.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// tableVersion resolves a hosted table to its current version, that
// version's cache address and its WAL sequence (0 for a static table). A
// live table's address is its version ref (base hash + sequence, O(1) per
// append), and all three come from one snapshot, so a concurrent append
// can never pair one version's rows with another's address.
func (s *Server) tableVersion(name string) (table *viewseeker.Table, refHash string, seq uint64) {
	s.mu.Lock()
	lt, table := s.live[name], s.tables[name]
	s.mu.Unlock()
	if lt != nil {
		table, seq = lt.Snapshot()
		return table, store.VersionedRef(store.HashTable(lt.Base()), seq), seq
	}
	if table == nil {
		return nil, "", 0
	}
	return table, store.HashTable(table), 0
}

// newSeeker builds a session's seeker by calling the rehydration closure
// it returns — creating and rehydrating are one call — and stamps the
// create record with the live-table sequence of the version the session
// sees. Exact sessions on hosted live tables are minted from the table's
// maintained offline version (already advanced, so creation skips the
// offline phase), which the closure holds however far the table moves on;
// the rest go through the offline-result cache at the current version.
func (s *Server) newSeeker(ctx context.Context, create *store.Record, table *viewseeker.Table, refHash string, seq uint64) (*viewseeker.Seeker, session.BuildFunc, error) {
	build := s.buildFunc(table, refHash)
	if create.Alpha <= 0 || create.Alpha >= 1 { // exact after normalisation
		s.mu.Lock()
		mt := s.maintainers[create.Table]
		s.mu.Unlock()
		if mt != nil {
			m, ok, err := mt.state(create.Query)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				var v *viewseeker.OfflineVersion
				v, seq = m.Version()
				build = func(_ context.Context, c store.Record) (*viewseeker.Seeker, error) {
					return m.NewSessionOn(v, s.sessionOptions(c))
				}
			}
		}
	}
	create.Seq = seq
	sk, err := build(ctx, *create)
	return sk, build, err
}

// sessionOptions maps a create record onto the facade's session options.
func (s *Server) sessionOptions(c store.Record) viewseeker.Options {
	return viewseeker.Options{
		K: c.K, Alpha: c.Alpha, Strategy: c.Strategy, Seed: c.Seed,
		Workers: c.Workers, RefineHook: s.refineHook,
	}
}

// buildFunc returns the rehydration closure for sessions created against
// (table, refHash): a rebuild through the offline-result cache, with the
// feedback replay handled by the session manager. The closure pins the
// exact table version the session was created on — live-table appends
// move the hosted table to a new version, and replaying a session against
// a version it never saw would break the bit-identity contract.
func (s *Server) buildFunc(table *viewseeker.Table, refHash string) session.BuildFunc {
	return func(ctx context.Context, c store.Record) (*viewseeker.Seeker, error) {
		ctx = obs.NewContext(ctx, s.metrics, s.tracer)
		opts := s.sessionOptions(c)
		opts.Cache, opts.RefHash = s.cache, refHash
		return viewseeker.NewCtx(ctx, table, c.Query, opts)
	}
}

func (s *Server) infoOf(id, table, query string, sk *viewseeker.Seeker) sessionInfo {
	return sessionInfo{
		ID: id, Table: table, Query: query,
		NumViews: sk.NumViews(), NumLabels: sk.NumLabels(),
		TargetRows: sk.Target().NumRows(), Cached: sk.CacheHit(),
		Degraded: s.Degraded(),
	}
}

// RestoreSessions indexes interactive sessions from journal records (see
// store.ReadJournal): every session still live at the end of the log is
// registered cold under its journalled id — the journal mirror and a
// rehydration closure, no offline phase — and rebuilt transparently on
// its first touch, through the offline-result cache, with its labelling
// history replayed through the deterministic feedback path. Boot is
// therefore O(records) regardless of how many sessions the journal holds;
// the indexed-but-cold count is logged and carried by the
// viewseeker_session_cold gauge. Sessions whose table is gone, or whose
// live table now serves another version than their create record's seq,
// are skipped and reported rather than silently replayed over rows they
// never saw; one broken record never blocks the rest of the boot. A
// session whose replay no longer succeeds surfaces its error on first
// touch instead of at boot.
func (s *Server) RestoreSessions(recs []store.Record) (restored int, err error) {
	var errs []error
	for _, lg := range store.Replay(recs) {
		c := lg.Create
		table, refHash, seq := s.tableVersion(c.Table)
		if table == nil {
			errs = append(errs, fmt.Errorf("session %s: unknown table %q", c.Session, c.Table))
			continue
		}
		if seq != c.Seq {
			errs = append(errs, fmt.Errorf("session %s: table %q now serves seq %d, the session saw seq %d",
				c.Session, c.Table, seq, c.Seq))
			continue
		}
		s.sessions.Index(c.Session, lg, s.buildFunc(table, refHash))
		restored++
	}
	if restored > 0 {
		s.log.Info("sessions indexed from journal; each rehydrates on first touch",
			"sessions", restored)
	}
	return restored, errors.Join(errs...)
}

// withSession resolves the {id} path segment and acquires the session for
// the duration of the handler — rehydrating it first when it was evicted
// or indexed cold from the journal. Acquisition failures map to the
// degraded-mode surface: 404 for unknown ids, 429 + Retry-After when the
// manager is shedding, 503 when the client's own context died mid-rebuild,
// 500 for a replay that no longer succeeds.
func (s *Server) withSession(h func(w http.ResponseWriter, r *http.Request, id string, hd *session.Handle)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		hd, err := s.sessions.Acquire(r.Context(), id)
		if err != nil {
			switch {
			case errors.Is(err, session.ErrNotFound):
				writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				writeError(w, http.StatusServiceUnavailable, err)
			default:
				writeOverload(w, err)
			}
			return
		}
		defer hd.Release()
		h(w, r, id, hd)
	}
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request, id string, hd *session.Handle) {
	c := hd.Create()
	writeJSON(w, http.StatusOK, s.infoOf(id, c.Table, c.Query, hd.Seeker()))
}

// viewJSON is one view in API responses.
type viewJSON struct {
	Index int     `json:"index"`
	Spec  string  `json:"spec"`
	Score float64 `json:"score"`
	SQL   string  `json:"sql,omitempty"`
}

// nextResponse is the GET next body: either the next view to label, or
// done=true once every view in the space has been labelled — a normal end
// state, not an error, so clients can tell exhaustion from real conflicts.
type nextResponse struct {
	Done bool `json:"done"`
	viewJSON
}

func (s *Server) handleNext(w http.ResponseWriter, r *http.Request, id string, hd *session.Handle) {
	vs, err := hd.Seeker().NextViewsCtx(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if len(vs) == 0 {
		writeJSON(w, http.StatusOK, nextResponse{Done: true})
		return
	}
	v := vs[0]
	writeJSON(w, http.StatusOK, nextResponse{
		viewJSON: viewJSON{Index: v.Index, Spec: v.Spec.String(), Score: v.Score},
	})
}

// feedbackRequest is the POST feedback body.
type feedbackRequest struct {
	Index int     `json:"index"`
	Label float64 `json:"label"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request, id string, hd *session.Handle) {
	var req feedbackRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if err := hd.Seeker().FeedbackCtx(r.Context(), req.Index, req.Label); err != nil {
		// A context done before the label landed means nothing was recorded
		// (see core.Seeker.FeedbackCtx): 503, the client may retry. Once the
		// label lands, cancellation only curtails optional refinement and the
		// call succeeds.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Mirror the label into the manager's replay log (what makes a later
	// eviction transparent) and the durable journal.
	hd.RecordFeedback(req.Index, req.Label)
	s.journalAppend(store.Record{Op: store.OpFeedback, Session: id, View: req.Index, Label: req.Label})
	writeJSON(w, http.StatusOK, s.topOf(hd.Seeker()))
}

type topResponse struct {
	NumLabels int        `json:"numLabels"`
	Top       []viewJSON `json:"top"`
	// Degraded mirrors GET /healthz (see sessionInfo.Degraded): feedback
	// responses carry it so a client learns within one interaction that its
	// labels are no longer being journalled.
	Degraded bool `json:"degraded"`
}

func (s *Server) topOf(sk *viewseeker.Seeker) topResponse {
	// Top starts as an empty slice, not nil: before the first feedback the
	// client must still receive "top": [], never "top": null.
	resp := topResponse{NumLabels: sk.NumLabels(), Top: []viewJSON{}, Degraded: s.Degraded()}
	for _, v := range sk.TopK() {
		vj := viewJSON{Index: v.Index, Spec: v.Spec.String(), Score: v.Score}
		if query, err := sk.SQL(v.Index); err == nil {
			vj.SQL = query
		}
		resp.Top = append(resp.Top, vj)
	}
	return resp
}

func (s *Server) handleTop(w http.ResponseWriter, r *http.Request, id string, hd *session.Handle) {
	writeJSON(w, http.StatusOK, s.topOf(hd.Seeker()))
}

func (s *Server) handleWeights(w http.ResponseWriter, r *http.Request, id string, hd *session.Handle) {
	weights, intercept := hd.Seeker().Weights()
	writeJSON(w, http.StatusOK, map[string]any{
		"features":  hd.Seeker().FeatureNames(),
		"weights":   weights,
		"intercept": intercept,
	})
}

func (s *Server) handleViewSVG(w http.ResponseWriter, r *http.Request, id string, hd *session.Handle) {
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid view index %q", r.PathValue("index")))
		return
	}
	p, err := hd.Seeker().Pair(idx)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, p.RenderSVG(640, 320))
}

func (s *Server) handleViewExplain(w http.ResponseWriter, r *http.Request, id string, hd *session.Handle) {
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid view index %q", r.PathValue("index")))
		return
	}
	text, err := hd.Seeker().Explain(idx, 3)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"explanation": text})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.Delete(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
		return
	}
	s.journalAppend(store.Record{Op: store.OpDelete, Session: id})
	w.WriteHeader(http.StatusNoContent)
}

// EvictIdleSessions drops every idle session's in-RAM state regardless of
// the budget; each rehydrates from its journal mirror on the next touch. The operator/bench hook behind the bit-identity
// harness in cmd/bench -serve.
func (s *Server) EvictIdleSessions() int { return s.sessions.EvictIdle() }
