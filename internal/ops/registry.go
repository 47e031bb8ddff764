// Package ops is the per-node observability plane: a process-wide metric
// registry exported in Prometheus text format, per-subsystem readiness
// checks, a bounded structural-event ring with trace spans, and an admin
// HTTP server (/healthz, /metrics, /events, /debug/pprof/*).
//
// The registry is pull-based: subsystems register closures over the
// primitives they already maintain (metrics.Histogram, StripedCounter, plain
// atomics), and merge-on-read happens only when a scraper asks. Nothing here
// adds work — or locks — to the hot path.
package ops

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// HistogramSource is the read-side surface the exporter needs from a
// histogram. metrics.Histogram satisfies it.
type HistogramSource interface {
	Count() uint64
	Sum() time.Duration
	Quantile(q float64) time.Duration
}

// Labels are rendered sorted by key into the Prometheus exposition.
type Labels map[string]string

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindSummary
)

type metricEntry struct {
	name    string
	help    string
	labels  Labels
	kind    metricKind
	counter func() uint64
	gauge   func() float64
	hist    HistogramSource
}

type readiness struct {
	name  string
	check func() error
}

// Registry holds one process's registered metrics, readiness checks, and
// event ring. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics []metricEntry
	checks  []readiness
	ring    *ring
	start   time.Time
}

// NewRegistry creates a registry with an event ring of the given capacity
// (<=0 selects the default, 4096 events).
func NewRegistry(ringCap int) *Registry {
	if ringCap <= 0 {
		ringCap = 4096
	}
	return &Registry{ring: newRing(ringCap), start: time.Now()}
}

// Counter registers a monotonically increasing metric read through fn.
func (r *Registry) Counter(name, help string, labels Labels, fn func() uint64) {
	r.add(metricEntry{name: name, help: help, labels: labels, kind: kindCounter, counter: fn})
}

// Gauge registers an instantaneous-value metric read through fn.
func (r *Registry) Gauge(name, help string, labels Labels, fn func() float64) {
	r.add(metricEntry{name: name, help: help, labels: labels, kind: kindGauge, gauge: fn})
}

// Histogram registers a latency distribution, exported as a Prometheus
// summary (quantiles 0.5/0.99/0.999 plus _sum and _count) in seconds.
func (r *Registry) Histogram(name, help string, labels Labels, h HistogramSource) {
	r.add(metricEntry{name: name, help: help, labels: labels, kind: kindSummary, hist: h})
}

func (r *Registry) add(e metricEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, e)
}

// Summary reads a registered histogram back out of the registry: count,
// median, and p99. SLO assertions (the chaos harness's p99 ceiling) read
// the node-side latency distributions through this instead of scraping
// and re-parsing the Prometheus exposition.
func (r *Registry) Summary(name string) (count uint64, p50, p99 time.Duration, ok bool) {
	r.mu.RLock()
	var h HistogramSource
	for _, e := range r.metrics {
		if e.kind == kindSummary && e.name == name {
			h = e.hist
			break
		}
	}
	r.mu.RUnlock()
	if h == nil {
		return 0, 0, 0, false
	}
	return h.Count(), h.Quantile(0.5), h.Quantile(0.99), true
}

// Readiness registers a named per-subsystem readiness check; a nil error
// means ready. Checks run on every /healthz request.
func (r *Registry) Readiness(name string, check func() error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checks = append(r.checks, readiness{name: name, check: check})
}

// Health runs every readiness check and reports per-subsystem status. ok is
// true only when every check passes.
func (r *Registry) Health() (ok bool, subsystems map[string]string) {
	r.mu.RLock()
	checks := make([]readiness, len(r.checks))
	copy(checks, r.checks)
	r.mu.RUnlock()
	ok = true
	subsystems = make(map[string]string, len(checks))
	for _, c := range checks {
		if err := c.check(); err != nil {
			ok = false
			subsystems[c.name] = err.Error()
		} else {
			subsystems[c.name] = "ok"
		}
	}
	return ok, subsystems
}

// summaryQuantiles are the quantiles exported per summary metric.
var summaryQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), sorted by metric name so output is
// stable. Histogram and counter stripes are merged at this point —
// merge-on-read.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	entries := make([]metricEntry, len(r.metrics))
	copy(entries, r.metrics)
	r.mu.RUnlock()

	sort.SliceStable(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	var b strings.Builder
	lastName := ""
	for _, e := range entries {
		if e.name != lastName {
			// HELP/TYPE once per family even when several label sets share it.
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, escapeHelp(e.help))
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, typeString(e.kind))
			lastName = e.name
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", e.name, renderLabels(e.labels, "", ""), e.counter())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", e.name, renderLabels(e.labels, "", ""), formatFloat(e.gauge()))
		case kindSummary:
			for _, sq := range summaryQuantiles {
				fmt.Fprintf(&b, "%s%s %s\n", e.name, renderLabels(e.labels, "quantile", sq.label),
					formatFloat(e.hist.Quantile(sq.q).Seconds()))
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", e.name, renderLabels(e.labels, "", ""), formatFloat(e.hist.Sum().Seconds()))
			fmt.Fprintf(&b, "%s_count%s %d\n", e.name, renderLabels(e.labels, "", ""), e.hist.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func typeString(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// renderLabels renders a sorted {k="v",...} block, folding in one extra
// label (used for quantile) when extraKey is nonempty.
func renderLabels(labels Labels, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels)+1)
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// formatFloat renders a float the way Prometheus expects (no exponent for
// typical magnitudes, full precision otherwise).
func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// Uptime reports how long ago the registry was created.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }
