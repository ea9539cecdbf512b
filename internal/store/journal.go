package store

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"viewseeker/internal/faultfs"
	"viewseeker/internal/obs"
	"viewseeker/internal/retry"
)

// Journal record operations.
const (
	OpCreate   = "create"
	OpFeedback = "feedback"
	OpDelete   = "delete"
)

// Record is one journal entry: a session lifecycle event. Create records
// carry the full session configuration; since selection and refinement are
// deterministic functions of (configuration, labels), replaying a
// session's create followed by its feedback records through a fresh seeker
// reconstructs the estimator exactly.
type Record struct {
	Op      string `json:"op"`
	Session string `json:"session"`

	// Create fields.
	Table    string  `json:"table,omitempty"`
	Query    string  `json:"query,omitempty"`
	K        int     `json:"k,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	Strategy string  `json:"strategy,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	// Seq is the WAL sequence of the live-table version the session saw
	// (0, omitted, for static tables and a live table's base). Restore
	// refuses to replay a session over any other version.
	Seq uint64 `json:"seq,omitempty"`

	// Feedback fields (no omitempty: view 0 and label 0 are meaningful).
	View  int     `json:"view"`
	Label float64 `json:"label"`
}

// Journal is an append-only log of session records, one JSON object per
// line. Appends are atomic at the line level (a single write call each),
// and ReadJournal tolerates torn lines, so a crash mid-append loses at
// most the record being written. Safe for concurrent use.
//
// Failure semantics: a failed append is retried on a bounded
// exponential-backoff schedule (SetRetryPolicy); once the schedule is
// exhausted the error is returned and the journal marks itself Degraded.
// The file stays open — the next append retries from scratch, and its
// success clears the degraded flag, so a transient disk fault costs only
// the records written while it lasted. A write that persisted some bytes
// before failing leaves a torn line; the journal terminates it with a
// newline before the next record so one torn write never corrupts the
// records after it.
type Journal struct {
	mu      sync.Mutex
	f       faultfs.File
	path    string
	midLine bool // last write failed after persisting part of a line
	policy  retry.Policy

	degraded atomic.Bool

	// Metric handles, nil until Instrument is called; nil-safe throughout.
	mAppends, mBytes              *obs.Counter
	mDegradedTransitions          *obs.Counter
	mRetryBackoffs, mRetryExhaust *obs.Counter
	mDegraded                     *obs.Gauge
	mAppendSeconds                *obs.Histogram
}

// OpenJournal opens (creating if needed) an append-only journal at path.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(faultfs.OS{}, path)
}

// OpenJournalFS is OpenJournal over an explicit filesystem — the
// fault-injection seam.
func OpenJournalFS(fs faultfs.FS, path string) (*Journal, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	return &Journal{f: f, path: path, policy: retry.Default()}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// SetRetryPolicy replaces the append retry schedule (tests inject a
// recording sleeper to assert deterministic backoff timing).
func (j *Journal) SetRetryPolicy(p retry.Policy) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.policy = p
}

// Degraded reports whether the last append exhausted its retries: the
// journal is still accepting appends, but records written while the flag
// is set were lost and will not survive a restart.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// Instrument registers the journal's metrics against reg: append count,
// bytes and latency, degraded-state gauge and transition counter, and the
// shared retry counters (one series across journal and cache). Call once
// at wiring time; an uninstrumented journal records nothing.
func (j *Journal) Instrument(reg *obs.Registry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.mAppends = reg.Counter("viewseeker_store_journal_appends_total")
	j.mBytes = reg.Counter("viewseeker_store_journal_bytes_total")
	j.mAppendSeconds = reg.Histogram("viewseeker_store_journal_append_seconds", obs.DurationBuckets)
	j.mDegraded = reg.Gauge(`viewseeker_store_degraded{component="journal"}`)
	j.mDegradedTransitions = reg.Counter(`viewseeker_store_degraded_transitions_total{component="journal"}`)
	j.mRetryBackoffs = reg.Counter("viewseeker_retry_backoffs_total")
	j.mRetryExhaust = reg.Counter("viewseeker_retry_exhausted_total")
}

// Append writes one record, retrying transient failures on the journal's
// backoff schedule. On success the degraded flag clears; on exhaustion it
// sets and the last write error is returned — callers deciding to keep
// serving without durability (the HTTP server does) log it and move on.
func (j *Journal) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal is closed")
	}
	start := time.Now()
	defer func() {
		j.mAppendSeconds.ObserveDuration(time.Since(start))
	}()
	policy := j.policy
	policy.Backoffs = j.mRetryBackoffs
	policy.Exhausted = j.mRetryExhaust
	err = policy.Do(context.Background(), func() error {
		payload := line
		if j.midLine {
			// Terminate the torn fragment a previous partial write left, so
			// the replay scanner sees one malformed line, not a corrupted
			// merge of fragment and record.
			payload = append([]byte{'\n'}, line...)
		}
		n, werr := j.f.Write(payload)
		if werr != nil {
			if n > 0 {
				j.midLine = true
			}
			return werr
		}
		j.midLine = false
		return nil
	})
	if err != nil {
		if !j.degraded.Swap(true) {
			j.mDegradedTransitions.Inc()
		}
		j.mDegraded.Set(1)
		return fmt.Errorf("store: journal append: %w", err)
	}
	j.degraded.Store(false)
	j.mDegraded.Set(0)
	j.mAppends.Inc()
	j.mBytes.Add(int64(len(line)))
	return nil
}

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// ReadJournal loads every well-formed record from a journal file. A
// missing file is an empty journal. Malformed or unrecognised lines are
// skipped, not fatal: a torn tail from a crash and torn interior lines
// from a disk fault mid-append (each terminated by the next successful
// append, see Journal.Append) both cost only the record being written —
// every record journalled around them survives. Records are whole lines,
// so a skipped fragment can never merge two surviving records.
func ReadJournal(path string) ([]Record, error) {
	return ReadJournalFS(faultfs.OS{}, path)
}

// ReadJournalFS is ReadJournal over an explicit filesystem.
func ReadJournalFS(fs faultfs.FS, path string) ([]Record, error) {
	f, err := fs.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: opening journal: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		switch rec.Op {
		case OpCreate, OpFeedback, OpDelete:
		default:
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil && len(out) == 0 {
		return nil, fmt.Errorf("store: reading journal: %w", err)
	}
	return out, nil
}

// SessionLog is the collapsed journal state of one session that is still
// live at the end of the log: its create record plus its feedback records
// in arrival order.
type SessionLog struct {
	Create   Record
	Feedback []Record
}

// Replay collapses a record stream into the live sessions' logs, in
// creation order: deletes remove sessions, feedback for unknown (deleted
// or never created) sessions is dropped, and a second create under an
// existing id replaces the first — the log's last writer wins, matching
// what the server it journals would have in memory.
func Replay(recs []Record) []SessionLog {
	byID := make(map[string]*SessionLog)
	var order []string
	for _, rec := range recs {
		switch rec.Op {
		case OpCreate:
			if _, exists := byID[rec.Session]; !exists {
				order = append(order, rec.Session)
			}
			byID[rec.Session] = &SessionLog{Create: rec}
		case OpFeedback:
			if log, ok := byID[rec.Session]; ok {
				log.Feedback = append(log.Feedback, rec)
			}
		case OpDelete:
			delete(byID, rec.Session)
		}
	}
	out := make([]SessionLog, 0, len(byID))
	for _, id := range order {
		if log, ok := byID[id]; ok {
			out = append(out, *log)
		}
	}
	return out
}
