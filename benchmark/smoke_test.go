package main

import (
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"viewseeker"
	vsserver "viewseeker/internal/server"
	"viewseeker/internal/store"
)

// inProcess boots the server the way cmd/serve wires it, but in this
// process behind httptest, so the smoke test builds no binary.
func inProcess(cfg serverConfig) (*server, error) {
	table, err := viewseeker.LoadCSV(cfg.csv)
	if err != nil {
		return nil, err
	}
	table.Name = cfg.table
	log := &accessLog{}
	opts := vsserver.Options{SessionBudgetBytes: cfg.budget, Logger: slog.New(slog.NewTextHandler(log, nil))}
	var closers []func() error
	if cfg.cacheDir != "" {
		cache, err := store.Open(cfg.cacheDir, 0)
		if err != nil {
			return nil, err
		}
		journal, err := store.OpenJournal(filepath.Join(cfg.cacheDir, "journal.jsonl"))
		if err != nil {
			return nil, err
		}
		opts.Cache, opts.Journal = cache, journal
		closers = append(closers, journal.Close)
	}
	srv := vsserver.NewWithOptions(opts, table)
	if cfg.walDir != "" {
		lt, rec, err := viewseeker.OpenLiveTableOptions(filepath.Join(cfg.walDir, cfg.table+".wal"), table,
			viewseeker.LiveOptions{SyncEvery: 1, CheckpointBytes: cfg.checkpointBytes})
		if err != nil {
			return nil, err
		}
		srv.HostLive(lt, rec)
		closers = append([]func() error{lt.Close}, closers...)
	}
	if cfg.traceLog != "" {
		f, err := os.OpenFile(cfg.traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		srv.Tracer().SetSink(f)
		closers = append(closers, f.Close)
	}
	if opts.Journal != nil {
		recs, err := store.ReadJournal(opts.Journal.Path())
		if err != nil {
			return nil, err
		}
		if _, err := srv.RestoreSessions(recs); err != nil {
			return nil, err
		}
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() error {
		ts.Close()
		srv.Close()
		for _, c := range closers {
			if err := c(); err != nil {
				return err
			}
		}
		return nil
	}
	return &server{base: ts.URL, pid: os.Getpid(), log: log, stop: stop}, nil
}

// tiny shrinks a workload to smoke-test scale, keeping its shape.
func tiny(w *workload) *workload {
	c := *w
	c.rows = 20_000
	if c.table == "diab" {
		c.rows = 4000
	}
	c.rate, c.iters, c.think = 6, 3, 20*time.Millisecond
	if c.returnRate > 0 {
		c.returnRate, c.returnIters, c.history, c.histLabels = 6, 2, 60, 2
		c.budgetBytes = 1 << 20
	}
	if c.live {
		c.appendRate, c.appendRows, c.preseed, c.checkpointBytes = 6, 50, 4, 16<<10
	}
	return &c
}

// TestSmoke runs every workload for 2 seconds at tiny scale, end to end and
// traced, against an in-process server: the harness must finish, pass its
// own correctness checks (oracle replay, spec order, live row counts), and
// produce every metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range sp.Workloads {
		w := workloadNamed(ws.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names %q, which the harness does not define", ws.Name)
		}
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				b := &bench{seed: 3, trace: traced, spec: sp, start: inProcess, conns: 2, maxLag: time.Second}
				b.setSeconds(2)
				res := b.run(tiny(w), t.TempDir())
				rep := &report{Workloads: map[string]*result{w.name: res}}
				line := rep.line(sp, []string{w.name}, traced)
				for _, c := range res.Checks {
					t.Error(c)
				}
				if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
			})
		}
	}
}
