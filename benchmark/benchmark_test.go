package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

var smoke = flag.Bool("smoke", false, "also run every workload for 1 s over TCP with its oracle")

func TestPercentileAndMedian(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, {0.125, 15},
	} {
		if got := percentile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Median of rounds: order must not matter, the input must not change,
	// and an even count interpolates.
	rounds := []float64{5, 1, 9, 3}
	if got := median(rounds); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if !reflect.DeepEqual(rounds, []float64{5, 1, 9, 3}) {
		t.Errorf("median reordered its input: %v", rounds)
	}
	if got := median([]float64{7, 100, 8}); got != 8 {
		t.Errorf("median = %v, want 8 (one outlier round must not move it)", got)
	}
	if lo, hi := minMax(rounds); lo != 1 || hi != 9 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
	if got := countAbove([]float64{1, 2, 3, 4}, 2); got != 2 {
		t.Errorf("countAbove = %d, want 2", got)
	}
}

func TestSamplesClampAndCapacity(t *testing.T) {
	s := newSamples(2)
	s.add(-5)
	s.add(math.MaxInt64)
	s.add(1000)
	if s.dropped != 1 || len(s.ns) != 2 {
		t.Fatalf("len %d dropped %d, want 2 and 1", len(s.ns), s.dropped)
	}
	if us := s.sortedUS(); us[0] != 0 || us[1] != float64(math.MaxUint32)/1e3 {
		t.Errorf("clamped samples = %v", us)
	}
}

// Same seed ⇒ the same ops and the same due-time schedule, on every
// workload; another seed ⇒ another stream.
func TestSameSeedSameStream(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		gen := func(seed int64) []op {
			tg, rt, err := newOfflineTargets(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			defer rt.Close()
			return tg.genPool(seed, 4096)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different op streams", spec.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same op stream", spec.Name)
		}
		if spec.Elastic {
			tg, rt, err := newOfflineTargets(spec)
			if err != nil {
				t.Fatal(err)
			}
			scratch := tg.scen.Roots()[0]
			rt.Close()
			for _, o := range a {
				if o.Method == "rollup" && o.Target == scratch {
					t.Fatalf("%s: the scratch region must never be rolled up", spec.Name)
				}
			}
		}
	}
	d1, d2 := schedule(120000, 250*time.Millisecond), schedule(120000, 250*time.Millisecond)
	if !reflect.DeepEqual(d1, d2) || len(d1) != 30000 {
		t.Fatalf("schedule not deterministic: %d and %d due instants", len(d1), len(d2))
	}
	if d1[0] != 0 || d1[12000] != int64(100*time.Millisecond) {
		t.Errorf("due[0] = %d, due[12000] = %d; want 0 and 100ms", d1[0], d1[12000])
	}
}

type doneWaiter struct{}

func (doneWaiter) Wait() (any, error) { return nil, nil }

// An open-loop phase times every event from the instant it was due. A 50 ms
// stall inside the submit call therefore shows up in the latency of the
// events that fell due during the stall, although each of them completes
// the moment it is finally sent.
func TestStallChargesEventsDueDuringIt(t *testing.T) {
	const rate, stallAt = 10000, 1000
	stall := 50 * time.Millisecond
	due := schedule(rate, 300*time.Millisecond)
	pool := make([]op, 1024)
	g := newLoadgen(pool, 1, 1, 10000, len(due), 0)
	sent := 0
	res := g.runPaced(func(*op) waiter {
		if sent == stallAt {
			time.Sleep(stall)
		}
		sent++
		return doneWaiter{}
	}, 64, due)
	if res.sent != int64(len(due)) || res.failed != 0 {
		t.Fatalf("sent %d failed %d, want %d and 0", res.sent, res.failed, len(due))
	}
	// 500 events fell due during the stall; those due in its first half
	// waited at least 25 ms.
	if n := countAbove(res.latUS, 25000); n < 200 || n > 400 {
		t.Errorf("%d events waited more than 25 ms, want about 250", n)
	}
	if p50 := percentile(res.latUS, 0.5); p50 > 5000 {
		t.Errorf("p50 = %.0f us: events outside the stall must not be charged for it", p50)
	}
	if res.overSLO != countAbove(res.latUS, 10000) {
		t.Errorf("overSLO = %d, want the %d samples above slo_us", res.overSLO, countAbove(res.latUS, 10000))
	}
	late := g.lateNS.sortedUS()
	if percentile(late, 1) < 20000 {
		t.Errorf("issuer lateness max = %.0f us: the stall must show as generator lateness too", percentile(late, 1))
	}
}

func TestClosedLoopTalliesEveryCall(t *testing.T) {
	pool := make([]op, 1024)
	slow := func(ops []*op, errs []error) { time.Sleep(time.Millisecond) }
	g := newLoadgen(pool, 1, 2, 1000, 0, 1<<16)
	res := g.runClosed(phaseRPC, []callFunc{slow, slow}, 1, 50*time.Millisecond)
	if res.sent < 20 || res.sent != g.tally.attempted || int(res.sent) != len(res.latUS) {
		t.Fatalf("sent %d, tallied %d, %d latency samples", res.sent, g.tally.attempted, len(res.latUS))
	}
	if res.p50 < 1000 || res.p50 != percentile(res.latUS, 0.5) {
		t.Errorf("p50 = %.0f us for a 1 ms call", res.p50)
	}
	if g.cursor != int(res.sent) {
		t.Errorf("cursor %d after %d calls", g.cursor, res.sent)
	}
	// Batched calls: every op of every call is tallied, none is timed, and
	// the two callers take disjoint stretches of the pool.
	seen := make(map[*op]int)
	var mu sync.Mutex
	count := func(ops []*op, errs []error) {
		mu.Lock()
		for _, o := range ops {
			seen[o]++
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	res = g.runClosed(phaseSat, []callFunc{count, count}, 8, 10*time.Millisecond)
	if res.sent%8 != 0 || res.sent < 16 || len(res.latUS) != 0 {
		t.Fatalf("batched slice sent %d with %d latency samples", res.sent, len(res.latUS))
	}
	if len(seen) != int(res.sent) {
		t.Errorf("%d distinct ops over %d sent: callers overlapped", len(seen), res.sent)
	}
}

// The run's figures are read at the quiet-host quantile of the slices whose
// reference timings agreed, scaled to the reference core.
func TestQuietQuantileAndScaling(t *testing.T) {
	m := &measurer{refUS: 1000}
	slice := func(events int64, after float64) {
		m.add(phaseResult{kind: phaseSat, sent: events, elapsed: time.Second}, after)
	}
	// 100 slices at the slower clock (1000 us kernel): 90 disturbed ones,
	// ten undisturbed; then the core speeds up mid-slice; then one slice at
	// the faster clock.
	for i := 0; i < 90; i++ {
		slice(600+int64(i), 1000)
	}
	for i := 0; i < 10; i++ {
		slice(750, 1000)
	}
	slice(5000, 750) // unsteady: must not count, whatever it measured
	slice(1000, 750)
	if n := len(steadyOnly(m.phases)); n != 101 {
		t.Fatalf("%d steady slices, want 101", n)
	}
	res := &runResult{values: make(map[string]float64)}
	m.phases = append(m.phases, phaseResult{kind: phaseSetup, elapsed: time.Second, refUS: calibRefUS, steady: true},
		phaseResult{kind: phasePaced, sent: 10, p50: 5, refUS: calibRefUS, steady: true})
	endToEndMetrics(res, &workloads[1], m.phases)
	// 750 events/s beside a 1000 us kernel and 1000 beside a 750 us one are
	// the same speed on the reference core: 1000 events/s.
	if got := res.values["throughput_eps"]; math.Abs(got-1000) > 1e-6 {
		t.Errorf("throughput_eps = %v, want 1000", got)
	}
	if got := res.values["setup_s"]; got != 1 {
		t.Errorf("setup_s = %v, want 1", got)
	}
	if got := res.values["latency_p50_us"]; got != 5 {
		t.Errorf("paced latency_p50_us = %v, want the slices' median as measured", got)
	}
}

func TestSLORatioKeepsTheBestSlices(t *testing.T) {
	var phases []phaseResult
	for i := 0; i < 8; i++ {
		phases = append(phases, phaseResult{kind: phasePaced, sent: 100, overSLO: 1})
	}
	phases = append(phases, phaseResult{kind: phasePaced, sent: 100, overSLO: 90}, // the host stalled
		phaseResult{kind: phasePaced, sent: 100, overSLO: 60},
		phaseResult{kind: phaseSat, sent: 100, overSLO: 100}) // not a latency slice
	if got := sloOKRatio(phases, 0.8); math.Abs(got-0.99) > 1e-12 {
		t.Errorf("slo ratio over the best 80%% = %v, want 0.99", got)
	}
	if got := sloOKRatio(phases, 1); math.Abs(got-0.842) > 1e-12 {
		t.Errorf("slo ratio over all = %v, want 0.842", got)
	}
}

func TestCompareClassifies(t *testing.T) {
	runs := func(better string, bound float64, vs ...float64) *metricRuns {
		m := &metricRuns{Better: better, Bound: bound, Values: vs, Median: median(vs)}
		m.Min, m.Max = minMax(vs)
		return m
	}
	for _, c := range []struct {
		name string
		a, b *metricRuns
		want verdict
	}{
		{"lower-better, same", runs("lower", 0.10, 100, 101, 102), runs("lower", 0.10, 101, 102, 103), verdictOK},
		{"lower-better, 30% slower", runs("lower", 0.10, 100, 101, 102), runs("lower", 0.10, 130, 131, 132), verdictWorse},
		{"lower-better, 30% faster", runs("lower", 0.10, 100, 101, 102), runs("lower", 0.10, 70, 71, 72), verdictOK},
		{"higher-better, 30% less", runs("higher", 0.10, 100, 101, 102), runs("higher", 0.10, 70, 71, 72), verdictWorse},
		{"higher-better, 30% more", runs("higher", 0.10, 100, 101, 102), runs("higher", 0.10, 130, 131, 132), verdictOK},
		{"base too noisy", runs("lower", 0.10, 80, 100, 120), runs("lower", 0.10, 130, 131, 132), verdictUnresolved},
		{"change too noisy", runs("lower", 0.10, 100, 101, 102), runs("lower", 0.10, 90, 131, 150), verdictUnresolved},
	} {
		if _, got := classify(c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if ratio, _ := classify(runs("lower", 0.1, 200), runs("lower", 0.1, 100)); ratio != 0.5 {
		t.Errorf("ratio = %v, want B÷A = 0.5", ratio)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(8)
	tr.spans = append(tr.spans,
		span{Name: "event", StartNS: 0, EndNS: 1000, Parent: -1},
		span{Name: "a", StartNS: 100, EndNS: 400, Parent: 0},
		span{Name: "b", StartNS: 400, EndNS: 900, Parent: 0})
	self := tr.selfTimesUS()
	if self["event"][0] != 0.2 || self["a"][0] != 0.3 || self["b"][0] != 0.5 {
		t.Errorf("self times = %v", self)
	}
	for i := 0; i < 8; i++ {
		tr.end(tr.begin("x", -1, 0))
	}
	if tr.dropped != 3 || len(tr.spans) != 8 {
		t.Errorf("budget: %d spans, %d dropped; want 8 and 3", len(tr.spans), tr.dropped)
	}
}

func TestParseProm(t *testing.T) {
	text := "# HELP x y\n# TYPE x counter\nx 3\nx{part=\"1\"} 4\nlat{quantile=\"0.5\"} 9\nlat_count 2\nbad line here\n"
	got := make(map[string]float64)
	parseProm([]byte(text), got)
	if got["x"] != 7 || got["lat_count"] != 2 || len(got) != 2 {
		t.Errorf("parsed %v", got)
	}
}

// BENCHMARK.json is the driver's copy of the definition in spec.go; the two
// must not drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, spec.go says %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec.go has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v differs from spec.go", i, w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec.go has %d", kind, len(got), len(want))
		}
		seen := make(map[string]bool)
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d]: %+v differs from spec.go %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, spec.go says %v", kind, m.Name, m.Bound, w.Bound)
			}
			if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
				t.Errorf("%s %s: duplicate or over-long name/unit", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics; the driver takes at most 128", len(doc.PerLayer))
	}
}

func TestSmoke(t *testing.T) {
	if !*smoke {
		t.Skip("pass -smoke to deploy every fleet shape over TCP for 1 s")
	}
	if code := smokeMain(); code != 0 {
		t.Fatalf("smoke exited %d", code)
	}
}
