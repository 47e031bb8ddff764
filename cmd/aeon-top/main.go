// Command aeon-top summarizes a live AEON fleet on one screen, the way top
// summarizes processes: it polls every node's admin /metrics endpoint
// (cmd/aeon-node -admin), computes rates from consecutive scrapes of the same
// node over the time that actually passed between them, and renders a table
// — one row per node — of the numbers an operator reaches for first: submit
// execution and forwarding rates, batch throughput, executor queue depth,
// event-latency p99, mux completion-slot occupancy, replication lag, and
// dropped late responses.
//
//	aeon-top -fleet "1=127.0.0.1:8101,2=127.0.0.1:8102,3=127.0.0.1:8103"
//
// -once scrapes a single time and prints absolute totals instead of rates
// (for scripts and CI smoke checks); otherwise the table refreshes every
// -interval until interrupted.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aeon-top:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fleet    = flag.String("fleet", "1=127.0.0.1:8101", "comma-separated id=host:port admin addresses to poll")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		once     = flag.Bool("once", false, "scrape once, print absolute totals, exit")
	)
	flag.Parse()

	targets, err := parseFleet(*fleet)
	if err != nil {
		return err
	}

	if *once {
		rows := scrapeAll(targets)
		render(os.Stdout, rows, nil)
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var prev map[string]sample
	for {
		rows := scrapeAll(targets)
		// Clear and home between frames; plain output stays readable when
		// piped because each frame still ends in newlines.
		fmt.Print("\033[H\033[2J")
		render(os.Stdout, rows, prev)
		prev = rows
		select {
		case <-sig:
			return nil
		case <-time.After(*interval):
		}
	}
}

type target struct {
	name string
	url  string
}

func parseFleet(spec string) ([]target, error) {
	var ts []target
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -fleet entry %q (want id=host:port)", part)
		}
		ts = append(ts, target{name: kv[0], url: "http://" + kv[1]})
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("-fleet lists no targets")
	}
	return ts, nil
}

// sample is one node's scraped metric set (metric name + optional quantile
// label → value), plus scrape health. at is when the scrape was read: one
// loop turn is every target's scrape (sequential, up to the client timeout
// each) plus -interval, so a rate divides by the gap between two samples' at,
// never by the flag.
type sample struct {
	ok      bool
	err     string
	at      time.Time
	metrics map[string]float64
}

func scrapeAll(targets []target) map[string]sample {
	out := make(map[string]sample, len(targets))
	httpc := &http.Client{Timeout: 3 * time.Second}
	for _, t := range targets {
		out[t.name] = scrape(httpc, t.url)
	}
	return out
}

func scrape(httpc *http.Client, base string) sample {
	resp, err := httpc.Get(base + "/metrics")
	if err != nil {
		return sample{err: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sample{err: fmt.Sprintf("HTTP %d", resp.StatusCode)}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return sample{err: "read body: " + err.Error()}
	}
	s := sample{ok: true, at: time.Now(), metrics: make(map[string]float64)}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		// Collapse label sets we don't pivot on, but keep quantiles: a
		// summary line aeon_x{quantile="0.99"} stays distinct, while
		// per-partition counters sum into their family.
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if q := quantileOf(key[i:]); q != "" {
				key = key[:i] + ":" + q
			} else {
				key = key[:i]
			}
		}
		s.metrics[key] += v
	}
	return s
}

func quantileOf(labels string) string {
	const tag = `quantile="`
	i := strings.Index(labels, tag)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(tag):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// columns maps table headers to metric keys. Counter columns render as
// per-second rates when a previous sample exists, absolute totals otherwise.
var columns = []struct {
	head    string
	key     string
	counter bool
}{
	{"EXEC", "aeon_node_submits_executed_total", true},
	{"FWD", "aeon_node_submits_forwarded_total", true},
	{"BATCH", "aeon_node_batch_frames_total", true},
	{"BEV", "aeon_node_batch_events_total", true},
	{"QDEPTH", "aeon_exec_queue_depth", false},
	{"P99MS", "aeon_event_latency_seconds:0.99", false},
	{"SLOTS", "aeon_mux_slots_in_use", false},
	{"RLAG", "aeon_replication_lag", false},
	{"DROPS", "aeon_mux_dropped_responses_total", true},
}

// rate renders a counter's per-second rate between two scrapes of one node,
// or "-" when there is none to give: the node was down at the previous
// scrape, or the counter went backwards (the node restarted in between).
func rate(cur, prev sample, key string) string {
	dt := cur.at.Sub(prev.at).Seconds()
	dv := cur.metrics[key] - prev.metrics[key]
	if !prev.ok || dt <= 0 || dv < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", dv/dt)
}

func render(w io.Writer, rows, prev map[string]sample) {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-8s %-5s", "NODE", "UP")
	for _, c := range columns {
		fmt.Fprintf(w, " %9s", c.head)
	}
	fmt.Fprintln(w)
	for _, name := range names {
		s := rows[name]
		if !s.ok {
			fmt.Fprintf(w, "%-8s %-5s %s\n", name, "down", s.err)
			continue
		}
		fmt.Fprintf(w, "%-8s %-5s", name, "ok")
		for _, c := range columns {
			v, have := s.metrics[c.key]
			switch {
			case !have:
				fmt.Fprintf(w, " %9s", "-")
			case c.key == "aeon_event_latency_seconds:0.99":
				fmt.Fprintf(w, " %9.2f", v*1000)
			case c.counter && prev != nil:
				fmt.Fprintf(w, " %9s", rate(s, prev[name], c.key))
			default:
				fmt.Fprintf(w, " %9.0f", v)
			}
		}
		fmt.Fprintln(w)
	}
	if prev != nil {
		fmt.Fprintln(w, "\ncounters are per-second rates between each node's last two scrapes; ctrl-c to quit")
	}
}
