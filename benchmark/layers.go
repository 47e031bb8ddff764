package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"aeon/internal/ops"
	"aeon/internal/transport"
)

// Per-layer attribution measured from outside: everything here reads
// surfaces the program already exposes (each node's ops registry, the
// public counters on Client and transport, /proc/self/io) before and after
// the measured phases. Nothing is added to the program.

// scrape is one reading of every counter the per-layer metrics use, summed
// over the fleet's nodes.
type scrape struct {
	prom      map[string]float64 // Prometheus series summed across nodes; quantile series are skipped
	completed []float64          // aeon_events_completed_total per node
	syscalls  float64            // read + write syscalls of the process
	wireBytes float64            // bytes written by the process (both directions are ours)
	mux       transport.MuxStats
	coalEv    float64
	coalFlush float64
	coalLing  float64
	maxBatch  int
	storeOps  float64
	took      time.Duration
}

// parseProm sums `name value` and `name{labels} value` lines into dst,
// skipping comment lines and per-quantile series.
func parseProm(text []byte, dst map[string]float64) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "quantile=") {
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
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		dst[name] += v
	}
}

// procIO reads the process's syscall and byte counters. Socket traffic
// counts: every frame is one write on the sender and one read on the
// receiver, and both ends of every connection live in this process.
func procIO() (syscalls, written float64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseFloat(v, 64)
		switch k {
		case "syscr", "syscw":
			syscalls += n
		case "wchar":
			written = n
		}
	}
	return syscalls, written
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// storeRegistry exposes the store servers' request counters the same way a
// dedicated store process would (StoreServer.RegisterOps).
func (f *fleet) storeRegistry() *ops.Registry {
	reg := ops.NewRegistry(1)
	for _, s := range f.dep.StoreServers {
		s.RegisterOps(reg)
	}
	return reg
}

func (f *fleet) scrape(storeReg *ops.Registry) scrape {
	t0 := time.Now()
	s := scrape{prom: make(map[string]float64)}
	var buf bytes.Buffer
	for _, n := range f.dep.Nodes {
		buf.Reset()
		_ = n.Ops().WritePrometheus(&buf) // bytes.Buffer writes cannot fail
		one := make(map[string]float64)
		parseProm(buf.Bytes(), one)
		s.completed = append(s.completed, one["aeon_events_completed_total"])
		for k, v := range one {
			s.prom[k] += v
		}
	}
	s.took = time.Since(t0)
	buf.Reset()
	_ = storeReg.WritePrometheus(&buf)
	sp := make(map[string]float64)
	parseProm(buf.Bytes(), sp)
	s.storeOps = sp["aeon_store_server_ops_total"]
	s.syscalls, s.wireBytes = procIO()
	s.mux = transport.ReadMuxStats()
	for _, c := range f.clients() {
		cs := c.CoalescerStats()
		s.coalEv += float64(cs.Events)
		s.coalFlush += float64(cs.Flushes)
		s.coalLing += float64(cs.FlushLinger)
		s.maxBatch = cs.MaxBatch
	}
	return s
}

// summary reads a latency histogram back from every node's registry and
// folds the nodes: the median is count-weighted, the p99 is the worst node's.
func (f *fleet) summary(name string) (p50us, p99us float64) {
	var total float64
	for _, n := range f.dep.Nodes {
		count, p50, p99, ok := n.Ops().Summary(name)
		if !ok || count == 0 {
			continue
		}
		p50us += float64(count) * float64(p50.Nanoseconds()) / 1e3
		total += float64(count)
		if v := float64(p99.Nanoseconds()) / 1e3; v > p99us {
			p99us = v
		}
	}
	if total > 0 {
		p50us /= total
	}
	return p50us, p99us
}

// sampler polls the gauges that only mean something as a maximum over the
// run, at 10 Hz.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	queueDepthMax float64
	slotsMax      float64
	lagMax        float64
}

func startSampler(f *fleet) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var buf bytes.Buffer
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			for _, n := range f.dep.Nodes {
				buf.Reset()
				_ = n.Ops().WritePrometheus(&buf)
				one := make(map[string]float64)
				parseProm(buf.Bytes(), one)
				s.queueDepthMax = max(s.queueDepthMax, one["aeon_exec_queue_depth"])
				s.lagMax = max(s.lagMax, one["aeon_replication_lag"])
			}
			s.slotsMax = max(s.slotsMax, float64(transport.ReadMuxStats().SlotsInUse))
		}
	}()
	return s
}

// halt stops the sampler and waits for it; the maxima are safe to read after.
func (s *sampler) halt() {
	close(s.stop)
	s.wg.Wait()
}
