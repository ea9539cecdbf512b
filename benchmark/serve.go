package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverConfig is one boot of the measured server.
type serverConfig struct {
	table, csv      string
	cacheDir        string // -cache-dir (offline-result snapshots + session journal)
	walDir          string // -wal-dir (every table hosted live)
	budget          int64  // -session-budget-bytes
	checkpointBytes int64  // -checkpoint-bytes
	traceLog        string // -trace-log
}

// server is a booted server: its base URL, the process whose CPU and
// memory are read from /proc, and its parsed access log.
type server struct {
	base string
	pid  int
	boot time.Duration // from exec to the first 200 on /healthz
	log  *accessLog
	stop func() error
}

// starter boots a server. The benchmark's starter execs cmd/serve; tests
// substitute an in-process one.
type starter func(cfg serverConfig) (*server, error)

// bootTimeout bounds one boot; the SYN 1M CSV load takes a few seconds.
const bootTimeout = 150 * time.Second

// processStarter execs the cmd/serve binary at bin.
func processStarter(bin string) starter {
	return func(cfg serverConfig) (*server, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr, "-dataset", "none"}
		if cfg.cacheDir != "" {
			args = append(args, "-cache-dir", cfg.cacheDir)
		}
		if cfg.budget > 0 {
			args = append(args, "-session-budget-bytes", strconv.FormatInt(cfg.budget, 10))
		}
		if cfg.walDir != "" {
			args = append(args, "-wal-dir", cfg.walDir)
		}
		if cfg.checkpointBytes > 0 {
			args = append(args, "-checkpoint-bytes", strconv.FormatInt(cfg.checkpointBytes, 10))
		}
		if cfg.traceLog != "" {
			args = append(args, "-trace-log", cfg.traceLog)
		}
		args = append(args, cfg.table+"="+cfg.csv)
		log := &accessLog{}
		cmd := exec.Command(bin, args...)
		// Both streams are drained continuously by exec's copying
		// goroutines, so logging never blocks the server.
		cmd.Stdout = log
		cmd.Stderr = log
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
		// exited closes when the process has been reaped; waitErr is its
		// exit status.
		exited := make(chan struct{})
		var waitErr error
		go func() {
			waitErr = cmd.Wait()
			close(exited)
		}()
		stop := func() error {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
				if waitErr != nil {
					return fmt.Errorf("server exit: %w (%s)", waitErr, log.tail())
				}
				return nil
			case <-time.After(30 * time.Second):
				_ = cmd.Process.Kill()
				<-exited
				return errors.New("server did not stop within 30s of SIGTERM")
			}
		}
		base := "http://" + addr
		boot, err := waitHealthy(base, start, exited)
		if err != nil {
			_ = cmd.Process.Kill()
			<-exited
			return nil, fmt.Errorf("boot: %w (%s)", err, log.tail())
		}
		return &server{base: base, pid: cmd.Process.Pid, boot: boot, log: log, stop: stop}, nil
	}
}

// freeAddr returns a loopback address with a port the kernel just had free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitHealthy polls GET /healthz every 2 ms until it answers 200 and
// returns the time since start.
func waitHealthy(base string, start time.Time, exited <-chan struct{}) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	for time.Since(start) < bootTimeout {
		if resp, err := hc.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		select {
		case <-exited:
			return 0, errors.New("server exited during boot")
		case <-time.After(2 * time.Millisecond):
		}
	}
	return 0, fmt.Errorf("no 200 on /healthz within %s", bootTimeout)
}

// logEntry is one access-log line: the handler's own view of a request.
type logEntry struct {
	route    string
	status   int
	duration time.Duration
}

// accessLog consumes the server's log output line by line, keeping each
// request line by its X-Request-Id and the last few other lines for error
// reports. It is the io.Writer both server streams drain into.
type accessLog struct {
	mu      sync.Mutex
	partial []byte
	byID    map[string]logEntry
	other   []string
}

func (l *accessLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		l.line(string(l.partial[:i]))
		l.partial = l.partial[i+1:]
	}
	return len(p), nil
}

// line parses one line. Request lines carry id=, route=, status= and
// duration= attributes (slog's key=value form, values optionally quoted),
// whichever slog handler wrote them.
func (l *accessLog) line(s string) {
	attrs := parseAttrs(s)
	id, ok := attrs["id"]
	d, derr := time.ParseDuration(attrs["duration"])
	status, serr := strconv.Atoi(attrs["status"])
	if !ok || derr != nil || serr != nil || attrs["route"] == "" {
		l.other = append(l.other, s)
		if len(l.other) > 20 {
			l.other = l.other[1:]
		}
		return
	}
	if l.byID == nil {
		l.byID = make(map[string]logEntry)
	}
	l.byID[id] = logEntry{route: attrs["route"], status: status, duration: d}
}

// parseAttrs splits a log line into its key=value attributes; tokens
// without '=' (date, level, message) are skipped.
func parseAttrs(s string) map[string]string {
	out := make(map[string]string)
	for len(s) > 0 {
		s = strings.TrimLeft(s, " ")
		eq := strings.IndexByte(s, '=')
		sp := strings.IndexByte(s, ' ')
		if eq < 0 {
			break
		}
		if sp >= 0 && sp < eq {
			s = s[sp:]
			continue
		}
		key, rest := s[:eq], s[eq+1:]
		val := rest
		if strings.HasPrefix(rest, `"`) {
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				break
			}
			val, _ = strconv.Unquote(q)
			rest = rest[len(q):]
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			val, rest = rest[:i], rest[i:]
		} else {
			rest = ""
		}
		out[key] = val
		s = rest
	}
	return out
}

func (l *accessLog) entry(id string) (logEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.byID[id]
	return e, ok
}

func (l *accessLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.other, " | ")
}

// procCPU returns the process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime and stime the 12th and 13th (fields 14 and 15 of proc(5)).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	// Linux reports these in USER_HZ ticks, 100 per second on every ABI Go
	// supports.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns the process's peak resident set (VmHWM) in KiB.
func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// scrape fetches /metricz as series name → value (histogram buckets are
// skipped; their _sum and _count are kept).
func scrape(c *client) (map[string]float64, error) {
	req, err := http.NewRequest("GET", c.base+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metricz: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// health fetches /healthz.
func health(c *client) (*healthResponse, error) {
	var h healthResponse
	_, err := c.do("healthz", "GET", "/healthz", nil, time.Now(), phaseControl, &h)
	return &h, err
}

// span is one line of the -trace-log file: a finished root span and its
// children (internal/obs.SpanData's JSON form).
type span struct {
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"duration_ns"`
	Children []*span   `json:"children"`
}

func (s *span) end() time.Time { return s.Start.Add(time.Duration(s.Duration)) }

// readSpans loads the root spans that started within [from, to].
func readSpans(path string, from, to time.Time) ([]*span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !s.Start.Before(from) && !s.Start.After(to) {
			out = append(out, &s)
		}
	}
	return out, sc.Err()
}
