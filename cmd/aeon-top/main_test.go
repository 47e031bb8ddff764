package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestScrape(t *testing.T) {
	const body = `# HELP aeon_node_submits_executed_total executed submits
# TYPE aeon_node_submits_executed_total counter
aeon_node_submits_executed_total 1200
aeon_event_latency_seconds{quantile="0.5"} 0.0001
aeon_event_latency_seconds{quantile="0.99"} 0.0042
aeon_event_latency_seconds_count 1200
aeon_errors_total{code="backpressure"} 3
aeon_errors_total{code="link-dropped",node="2"} 4
aeon_store_fence_epoch{partition="0"} 2
aeon_store_fence_epoch{partition="1"} 5
not a metric line
`
	cases := []struct {
		name    string
		handler http.HandlerFunc
		wantErr string // substring of sample.err; "" means the scrape succeeds
		want    map[string]float64
	}{
		{
			name:    "exposition",
			handler: func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, body) },
			want: map[string]float64{
				"aeon_node_submits_executed_total": 1200,
				"aeon_event_latency_seconds:0.5":   0.0001,
				"aeon_event_latency_seconds:0.99":  0.0042,
				"aeon_event_latency_seconds_count": 1200,
				"aeon_errors_total":                7, // every label set sums into its family
				"aeon_store_fence_epoch":           7,
			},
		},
		{
			name:    "status",
			handler: func(w http.ResponseWriter, r *http.Request) { http.Error(w, "degraded", http.StatusServiceUnavailable) },
			wantErr: "HTTP 503",
		},
		{
			// The handler promises more bytes than it sends: the status is
			// 200 and the failure is the body read, which must say so.
			name: "truncated body",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Length", "4096")
				fmt.Fprint(w, "aeon_node_submits_executed_total 1\n")
			},
			wantErr: "read body",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			before := time.Now()
			s := scrape(srv.Client(), srv.URL)
			if tc.wantErr != "" {
				if s.ok || !strings.Contains(s.err, tc.wantErr) || strings.Contains(s.err, "HTTP 200") {
					t.Fatalf("sample = %+v; want a failed scrape saying %q", s, tc.wantErr)
				}
				return
			}
			if !s.ok || s.at.Before(before) {
				t.Fatalf("sample = %+v; want ok and stamped", s)
			}
			if len(s.metrics) != len(tc.want) {
				t.Fatalf("metrics = %v; want %v", s.metrics, tc.want)
			}
			for k, v := range tc.want {
				if s.metrics[k] != v {
					t.Fatalf("metrics[%q] = %v; want %v (all: %v)", k, s.metrics[k], v, s.metrics)
				}
			}
		})
	}

	// Nothing listening: the transport error is the row's text.
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close()
	if s := scrape(srv.Client(), srv.URL); s.ok || s.err == "" {
		t.Fatalf("sample = %+v; want a failed scrape with its error", s)
	}
}

func TestRender(t *testing.T) {
	const exec = "aeon_node_submits_executed_total"
	t0 := time.Unix(1000, 0)
	up := func(at time.Time, executed float64) sample {
		return sample{ok: true, at: at, metrics: map[string]float64{
			exec:                              executed,
			"aeon_exec_queue_depth":           3,
			"aeon_event_latency_seconds:0.99": 0.0042,
		}}
	}
	cases := []struct {
		name      string
		prev, cur sample
		hasPrev   bool
		want      []string // the node's row, by field
	}{
		{
			// One turn took 5 s (a 3 s timeout on another target plus the 2 s
			// interval): 1000 more events is 200/s, not 1000/2.
			name: "elapsed is not the interval", hasPrev: true,
			prev: up(t0, 500), cur: up(t0.Add(5*time.Second), 1500),
			want: []string{"1", "ok", "200", "-", "-", "-", "3", "4.20", "-", "-", "-"},
		},
		{
			name: "counter reset", hasPrev: true,
			prev: up(t0, 9000), cur: up(t0.Add(2*time.Second), 40),
			want: []string{"1", "ok", "-", "-", "-", "-", "3", "4.20", "-", "-", "-"},
		},
		{
			name: "down at the previous scrape", hasPrev: true,
			prev: sample{err: "connection refused"}, cur: up(t0.Add(2*time.Second), 40),
			want: []string{"1", "ok", "-", "-", "-", "-", "3", "4.20", "-", "-", "-"},
		},
		{
			name: "down now", hasPrev: true,
			prev: up(t0, 500), cur: sample{err: "HTTP 503"},
			want: []string{"1", "down", "HTTP", "503"},
		},
		{
			name: "once prints totals",
			cur:  up(t0, 1500),
			want: []string{"1", "ok", "1500", "-", "-", "-", "3", "4.20", "-", "-", "-"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var prev map[string]sample
			if tc.hasPrev {
				prev = map[string]sample{"1": tc.prev}
			}
			var sb strings.Builder
			render(&sb, map[string]sample{"1": tc.cur}, prev)
			lines := strings.Split(sb.String(), "\n")
			if got := strings.Fields(lines[1]); strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Fatalf("row = %q; want %q\n%s", got, tc.want, sb.String())
			}
		})
	}
}
