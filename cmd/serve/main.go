// Command serve hosts the ViewSeeker HTTP UI and JSON API: pick a table,
// type the exploration query, rate the charts the recommender shows, and
// watch the top-k list converge — the browser edition of cmd/viewseeker.
//
// With -cache-dir the server is durable: offline-phase results are
// snapshotted to disk so a restart (or a second session on the same table
// and query) skips the feature computation, and every session's labelling
// history is journalled so interactive sessions survive a restart with
// identical recommendations.
//
// Observability (see the Operations section of README.md): GET /metricz
// serves Prometheus-format metrics and GET /debug/vars the same registry
// as JSON plus recent phase traces; -pprof additionally mounts the
// net/http/pprof profiling handlers under /debug/pprof/, and -trace-log
// streams every completed root span as one JSON line to a file.
//
// With -wal-dir every table is hosted live: POST /api/tables/{name}/append
// durably grows it through a write-ahead log, sessions in flight keep the
// version they started on, and a restart with the same tables and
// directory replays committed appends (a torn tail from a crash is
// truncated; the table comes back at the last committed batch).
//
// With -session-budget-bytes the session population is memory-bounded:
// the coldest idle sessions are evicted once the accounted total exceeds
// the budget and rebuilt transparently from the journal on their next
// touch; when even eviction cannot make room the server sheds new work
// with 429 + Retry-After. See the Scaling section of README.md for
// sizing guidance and DESIGN.md §16 for the mechanism.
//
// Usage:
//
//	serve [-addr :8080] [-dataset diab -rows 20000] [-cache-dir state/] [-session-budget-bytes N] [-wal-dir wal/] [-pprof] [-trace-log spans.jsonl] [name=path.csv ...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"viewseeker"
	"viewseeker/internal/dataset"
	"viewseeker/internal/server"
	"viewseeker/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		gen        = flag.String("dataset", "diab", "preload a generated dataset: diab, syn, nba or none")
		rows       = flag.Int("rows", 20_000, "rows for the generated dataset")
		seed       = flag.Int64("seed", 1, "generator seed")
		cacheDir   = flag.String("cache-dir", "", "directory for offline-result snapshots and the session journal (empty = in-memory cache only, sessions do not survive restarts)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline: the handler's context is cancelled and the client gets 503 when a request runs longer (0 disables)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/ (off by default: profiles expose internals, so opt in explicitly)")
		traceLog   = flag.String("trace-log", "", "append every completed phase trace as one JSON line to this file (empty = traces only in the in-memory ring at /debug/vars)")
		walDir     = flag.String("wal-dir", "", "host every table as a live (appendable) table, write-ahead-logged under this directory as <name>.wal; POST /api/tables/{name}/append grows a table, a restart with the same tables and directory replays committed appends")
		syncEvery  = flag.Int("wal-sync-every", 1, "fsync the WAL once per this many append batches (1 = every batch; higher trades a bounded durability window for append throughput)")
		ckptBytes  = flag.Int64("checkpoint-bytes", 0, "auto-checkpoint a live table whenever its WAL reaches this many bytes: the current version is snapshotted and the log compacted, bounding restart replay (0 = manual checkpoints only via POST /api/tables/{name}/checkpoint)")
		sessBudget = flag.Int64("session-budget-bytes", 0, "memory budget across all interactive sessions: over it, the coldest idle sessions are evicted and rebuilt transparently from the journal on their next touch; when even eviction cannot make room the server sheds with 429 + Retry-After (0 = unbudgeted; see the Scaling section of README.md for sizing)")
	)
	flag.Parse()
	var tables []*viewseeker.Table
	switch *gen {
	case "none", "":
	case "diab":
		tables = append(tables, dataset.GenerateDIAB(dataset.DIABConfig{Rows: *rows, Seed: *seed}))
	case "syn":
		tables = append(tables, dataset.GenerateSYN(dataset.SYNConfig{Rows: *rows, Seed: *seed}))
	case "nba":
		tables = append(tables, dataset.GenerateNBA(dataset.NBAConfig{Rows: *rows, Seed: *seed}))
	default:
		fmt.Fprintf(os.Stderr, "serve: unknown dataset %q\n", *gen)
		os.Exit(1)
	}
	for _, arg := range flag.Args() {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "serve: argument %q is not name=path.csv\n", arg)
			os.Exit(1)
		}
		t, err := viewseeker.LoadCSV(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		t.Name = name
		if len(t.Schema.Dimensions()) == 0 || len(t.Schema.Measures()) == 0 {
			fmt.Fprintf(os.Stderr, "serve: table %q has no roles; ship a .schema.json sidecar (cmd/datagen writes one)\n", name)
			os.Exit(1)
		}
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		fmt.Fprintln(os.Stderr, "serve: no tables (use -dataset or name=path.csv arguments)")
		os.Exit(1)
	}

	opts := server.Options{SessionBudgetBytes: *sessBudget}
	var journal *store.Journal
	if *cacheDir != "" {
		cache, err := store.Open(*cacheDir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		// The journal is a checksummed frame log, no longer JSON lines, but
		// it keeps the file name older versions used: the benchmark harness
		// pre-writes a session history to this path.
		journal, err = store.OpenJournal(filepath.Join(*cacheDir, "journal.jsonl"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		if rec := journal.Recovery(); rec.TornTail {
			fmt.Printf("serve: truncated a torn journal tail in %s (%d bytes past the last intact record)\n",
				journal.Path(), rec.TornBytes)
		}
		opts.Cache = cache
		opts.Journal = journal
	}
	srv := server.NewWithOptions(opts, tables...)
	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			lt, rec, err := viewseeker.OpenLiveTableOptions(filepath.Join(*walDir, t.Name+".wal"), t,
				viewseeker.LiveOptions{SyncEvery: *syncEvery, CheckpointBytes: *ckptBytes})
			if err != nil {
				fmt.Fprintf(os.Stderr, "serve: opening WAL for %q: %v\n", t.Name, err)
				os.Exit(1)
			}
			defer lt.Close()
			if rec.LastSeq > 0 {
				fmt.Printf("Replayed %d append batch(es) for %q (now %d rows)\n",
					len(rec.Batches), t.Name, lt.Current().NumRows())
			}
			if rec.SkippedFrames > 0 {
				fmt.Printf("Loaded %q from its checkpoint snapshot (%d already-covered WAL frames skipped)\n",
					t.Name, rec.SkippedFrames)
			}
			if rec.TornTail {
				fmt.Printf("serve: truncated a torn WAL tail for %q (%d bytes of an uncommitted append)\n",
					t.Name, rec.TornBytes)
			}
			srv.HostLive(lt, rec)
		}
	}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve: opening trace log:", err)
			os.Exit(1)
		}
		defer f.Close()
		srv.Tracer().SetSink(f)
	}
	if journal != nil {
		recs, err := store.ReadJournal(journal.Path())
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve: reading journal:", err)
			os.Exit(1)
		}
		restored, err := srv.RestoreSessions(recs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve: some sessions were not restored:", err)
		}
		if restored > 0 {
			// Restore is lazy: sessions are indexed cold and each pays its
			// (cache-warm) rebuild on first touch, so boot stays O(records).
			fmt.Printf("Indexed %d session(s) from %s (cold; each rehydrates on first touch)\n",
				restored, journal.Path())
		}
	}
	if *sessBudget > 0 {
		fmt.Printf("Session memory budget: %d bytes (idle sessions evict and rehydrate from the journal)\n", *sessBudget)
	}

	fmt.Printf("ViewSeeker UI on http://%s (tables: ", *addr)
	for i, t := range tables {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(t.Name)
	}
	fmt.Println(")")

	handler := srv.Handler()
	// Slow-client defence: bound how long reading a request and writing a
	// response may take, independent of handler work, so a stalled peer
	// cannot pin a connection (and its goroutine) forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	if *reqTimeout > 0 {
		// TimeoutHandler puts the deadline on r.Context(): a session whose
		// offline phase overruns is cancelled mid-computation (see the
		// failure-semantics contract in DESIGN.md) and the client gets 503.
		// WriteTimeout sits a little beyond it so the 503 itself can still
		// be written.
		httpSrv.Handler = http.TimeoutHandler(handler, *reqTimeout,
			`{"error":"request exceeded the server's -request-timeout deadline"}`)
		httpSrv.WriteTimeout = *reqTimeout + 5*time.Second
	}
	if *pprofOn {
		// The pprof mux sits outside the timeout handler: a 30-second CPU
		// profile is supposed to outlive -request-timeout. WriteTimeout is
		// also lifted for the same reason — pprof is an operator opt-in, so
		// trading the slow-client defence for working profiles is deliberate.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", httpSrv.Handler)
		httpSrv.Handler = mux
		httpSrv.WriteTimeout = 0
		fmt.Printf("pprof enabled on http://%s/debug/pprof/\n", *addr)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// drain in-flight requests, then flush the session journal so the next
	// boot restores every session.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Println("\nserve: shutting down...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
		}
		// Shutdown makes ListenAndServe return: drain its error so an
		// abnormal listener exit is still reported, not swallowed.
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve: listener:", err)
		}
	}
	// Stop background table maintenance before the live tables close under
	// it (their deferred Close also waits out in-flight auto-checkpoints).
	srv.Close()
	if journal != nil {
		if err := journal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "serve: closing journal:", err)
			os.Exit(1)
		}
		fmt.Println("serve: session journal flushed")
	}
}
