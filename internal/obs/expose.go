package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// splitSeries breaks a full series name into its base name and its
// constant-label body (without braces, "" when unlabelled).
func splitSeries(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// joinSeries rebuilds a series name from a base, an optional suffix
// spliced before the label set, and optional extra label pairs.
func joinSeries(base, suffix, labels, extra string) string {
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteString(suffix)
	all := labels
	if extra != "" {
		if all != "" {
			all += "," + extra
		} else {
			all = extra
		}
	}
	if all != "" {
		sb.WriteByte('{')
		sb.WriteString(all)
		sb.WriteByte('}')
	}
	return sb.String()
}

// WithSuffix splices a suffix into a series name ahead of any label set:
// WithSuffix(`h{route="x"}`, "_count") is `h_count{route="x"}`. Snapshot
// keys for histogram sums and counts are built this way.
func WithSuffix(name, suffix string) string {
	base, labels := splitSeries(name)
	return joinSeries(base, suffix, labels, "")
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// family is one exposition group: every series sharing a base name.
type family struct {
	base string
	typ  string // "counter", "gauge", "histogram"
	emit func(w io.Writer) error
}

// gather snapshots the registry into sorted families. Values are read
// atomically per series; exposition is not a consistent cut across series,
// which is the standard Prometheus trade.
func (r *Registry) gather() []family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	byBase := make(map[string]*struct {
		typ   string
		lines []string
	})
	add := func(name, typ, line string) {
		base, _ := splitSeries(name)
		f := byBase[base]
		if f == nil {
			f = &struct {
				typ   string
				lines []string
			}{typ: typ}
			byBase[base] = f
		}
		f.lines = append(f.lines, line)
	}
	for name, c := range r.counters {
		add(name, "counter", fmt.Sprintf("%s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		add(name, "gauge", fmt.Sprintf("%s %d", name, g.Value()))
	}
	for name, fn := range r.gaugeFns {
		add(name, "gauge", fmt.Sprintf("%s %d", name, fn()))
	}
	for name, h := range r.hists {
		base, labels := splitSeries(name)
		var lines []string
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			lines = append(lines, fmt.Sprintf("%s %d",
				joinSeries(base, "_bucket", labels, `le="`+formatFloat(b)+`"`), cum))
		}
		cum += h.buckets[len(h.bounds)].Load()
		lines = append(lines, fmt.Sprintf("%s %d", joinSeries(base, "_bucket", labels, `le="+Inf"`), cum))
		lines = append(lines, fmt.Sprintf("%s %s", joinSeries(base, "_sum", labels, ""), formatFloat(h.Sum())))
		lines = append(lines, fmt.Sprintf("%s %d", joinSeries(base, "_count", labels, ""), h.Count()))
		f := byBase[base]
		if f == nil {
			f = &struct {
				typ   string
				lines []string
			}{typ: "histogram"}
			byBase[base] = f
		}
		f.lines = append(f.lines, lines...)
	}
	out := make([]family, 0, len(byBase))
	for base, f := range byBase {
		lines := f.lines
		// Histogram lines are kept in bucket order per series; other series
		// within a family sort lexically so the exposition is deterministic.
		if f.typ != "histogram" {
			sort.Strings(lines)
		}
		fam := family{base: base, typ: f.typ}
		fam.emit = func(w io.Writer) error {
			for _, l := range lines {
				if _, err := io.WriteString(w, l+"\n"); err != nil {
					return err
				}
			}
			return nil
		}
		out = append(out, fam)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, histograms
// expanded into cumulative _bucket/_sum/_count series, families and series
// in deterministic sorted order. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.gather() {
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", f.base, f.typ); err != nil {
			return err
		}
		if err := f.emit(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// histogramJSON is one histogram in the JSON dump.
type histogramJSON struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets"` // upper bound → cumulative count
}

// dumpJSON is the /debug/vars-style document body.
type dumpJSON struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]histogramJSON `json:"histograms"`
}

// WriteJSON writes the registry as a /debug/vars-style JSON object with
// counters, gauges and histograms keyed by series name. Map keys marshal
// sorted, so the dump is deterministic. A nil registry writes "{}".
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}")
		return err
	}
	r.mu.Lock()
	doc := dumpJSON{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]histogramJSON, len(r.hists)),
	}
	for name, c := range r.counters {
		doc.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		doc.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		doc.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		hj := histogramJSON{Count: h.Count(), Sum: h.Sum(), Buckets: make(map[string]int64, len(h.bounds)+1)}
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			hj.Buckets[formatFloat(b)] = cum
		}
		cum += h.buckets[len(h.bounds)].Load()
		hj.Buckets["+Inf"] = cum
		doc.Histograms[name] = hj
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Snapshot flattens the registry into a single map for programmatic
// consumers (tests, embedding commands): counters and gauges
// under their series name, histograms as <name>_sum and <name>_count with
// any label set preserved. A nil registry returns an empty map.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = float64(g.Value())
	}
	for name, fn := range r.gaugeFns {
		out[name] = float64(fn())
	}
	for name, h := range r.hists {
		out[WithSuffix(name, "_sum")] = h.Sum()
		out[WithSuffix(name, "_count")] = float64(h.Count())
	}
	return out
}
