package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"aeon/internal/ops"
	"aeon/internal/ownership"
)

// runConfig is one invocation of the benchmark on one workload.
type runConfig struct {
	spec    *workloadSpec
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// runResult is what one invocation measured: the values of the end-to-end
// metrics (trace off) or of the per-layer metrics (trace on), by name.
type runResult struct {
	attempted int64
	failed    int64
	mismatch  int // oracle mismatches
	values    map[string]float64
	notes     []string // sample counts and other context, printed beside the metrics
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// measurer collects the slices of one run, each with the reference kernel's
// timings on both sides of it.
type measurer struct {
	phases []phaseResult
	refUS  float64   // the reference timing taken after the latest slice
	refs   []float64 // every reference timing of the run
}

func newMeasurer() *measurer {
	m := &measurer{refUS: calibrate()}
	m.refs = append(m.refs, m.refUS)
	return m
}

// add records a slice together with the reference timings on both sides of
// it — the latest one and after, taken when the slice ended — and drops its
// latency samples, whose quantiles are taken: a run keeps hundreds of slices.
func (m *measurer) add(p phaseResult, after float64) {
	before := m.refUS
	m.refUS = after
	m.refs = append(m.refs, m.refUS)
	p.refUS = (before + m.refUS) / 2
	p.steady = math.Abs(m.refUS-before) <= refTolerance*p.refUS
	p.latUS = nil
	m.phases = append(m.phases, p)
}

// runWorkload deploys the workload's fleet, drives it through the external
// SDK for cfg.seconds, checks the oracle and returns the metrics.
func runWorkload(cfg runConfig) (*runResult, error) {
	spec := cfg.spec
	res := &runResult{values: make(map[string]float64)}
	timerFloor := timerFloorUS()

	// The first set-up is the fleet the run measures; the others are timed
	// one per cycle, beside the slices.
	m := newMeasurer()
	t0 := time.Now()
	f, err := deployFleet(spec)
	if err != nil {
		return nil, err
	}
	defer f.close()
	m.add(phaseResult{kind: phaseSetup, elapsed: time.Since(t0)}, calibrate())

	t0 = time.Now()
	pool := f.genPool(cfg.seed, poolSize)
	genNS := float64(time.Since(t0).Nanoseconds()) / poolSize

	// With tracing on, the measured slices take half of the seconds; the
	// traced traffic and the stage replay take the rest.
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2
	}
	slice := time.Duration(sliceSeconds * float64(time.Second))
	var due []int64
	rpcCap := 0
	if spec.RPC {
		rpcCap = int(sliceSeconds*400000) + 1024 // per caller and slice; ≈6× today's rate
	} else {
		due = schedule(spec.PaceEPS, time.Duration(pacedSeconds*float64(time.Second)))
	}
	g := newLoadgen(pool, f.entities, closedCallers, spec.SLOus, len(due), rpcCap)
	closed := func(dur time.Duration) phaseResult {
		calls := make([]callFunc, closedCallers)
		for k := range calls {
			if spec.RPC {
				calls[k] = clientSubmit(f.sat)
			} else {
				calls[k] = clientSubmitBatch(f.sat)
			}
		}
		if spec.RPC {
			return g.runClosed(phaseRPC, calls, 1, dur)
		}
		return g.runClosed(phaseSat, calls, satBatch, dur)
	}

	// Warm-up: routes learned, connections open, pools filled. Each client
	// first touches every distinct target with one synchronous event: that
	// teaches it the route, and it is the only way a virtual-join dominator
	// gets materialised on its host (README, finding 1) — batch frames
	// alone fail every event that sequences at one.
	touched := make(map[ownership.ID]bool)
	for i := range pool {
		if o := &pool[i]; !touched[o.Target] {
			touched[o.Target] = true
			for _, c := range f.clients() {
				g.tally.record(o, submitOne(c, o))
			}
		}
	}
	warm := time.Duration(warmupSeconds * float64(time.Second))
	if spec.RPC {
		closed(warm)
	} else {
		closed(warm / 2)
		g.runPaced(clientGo(f.paced), clientWindow, schedule(spec.PaceEPS, warm/2))
	}

	var (
		storeReg *ops.Registry
		before   scrape
		smp      *sampler
		tr       *tracer
	)
	if cfg.trace {
		tr = newTracer(traceSpanBudget)
		storeReg = f.storeRegistry()
		before = f.scrape(storeReg)
		smp = startSampler(f)
	}
	bg := startBackground(f, tr)
	for start := time.Now(); time.Since(start) < measure; {
		for k := 0; k < slicesPerCycle; k++ {
			m.add(closed(slice), calibrate())
		}
		if !spec.RPC {
			m.add(g.runPaced(clientGo(f.paced), clientWindow, due), calibrate())
		}
		if cfg.trace {
			continue
		}
		t0 := time.Now()
		extra, err := deployFleet(spec)
		if err != nil {
			bg.halt()
			return nil, err
		}
		elapsed := time.Since(t0)
		extra.close()
		m.add(phaseResult{kind: phaseSetup, elapsed: elapsed}, calibrate())
	}
	bg.halt()
	phases := m.phases
	if cfg.trace {
		smp.halt()
		after := f.scrape(storeReg)
		layerMetrics(res, f, g, bg, phases[1:], before, after, smp) // all but the set-up
		res.values["loadgen.timer_floor_us"] = timerFloor
		res.values["loadgen.calib_ns"] = median(m.refs) * 1e3
		res.values["loadgen.gen_ns_per_op"] = genNS
		if err := tracedRun(cfg, res, f, g, tr); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(res, spec, phases)
		lo, hi := minMax(m.refs)
		res.notef("reference kernel: %d timings, median %.0f us, min %.0f max %.0f; times are scaled to %.0f us",
			len(m.refs), median(m.refs), lo, hi, calibRefUS)
		res.notef("loadgen.timer_floor_us %.1f  loadgen.gen_ns_per_op %.1f", timerFloor, genNS)
	}

	res.mismatch += f.checkOracle(g.tally, bg.lastHost)
	res.attempted = g.tally.attempted + bg.attempted
	res.failed = g.tally.fails + bg.failed + int64(res.mismatch)
	if !cfg.trace {
		// Read last: the oracle's reads are part of what the process did.
		res.values["peak_rss_mb"] = peakRSSMB()
	}
	return res, nil
}

func minOf(vs []float64) float64 { lo, _ := minMax(vs); return lo }
func maxOf(vs []float64) float64 { _, hi := minMax(vs); return hi }

// pick returns f(p) for every slice of one of the given kinds.
func pick(phases []phaseResult, f func(*phaseResult) float64, kinds ...phaseKind) []float64 {
	var out []float64
	for i := range phases {
		for _, k := range kinds {
			if phases[i].kind == k {
				out = append(out, f(&phases[i]))
			}
		}
	}
	return out
}

// steadyOnly keeps the slices whose reference timings agreed — all of them
// if fewer than a tenth did, so a run on a restless host still reports.
func steadyOnly(phases []phaseResult) []phaseResult {
	var out []phaseResult
	for i := range phases {
		if phases[i].steady {
			out = append(out, phases[i])
		}
	}
	if len(out)*10 < len(phases) {
		return phases
	}
	return out
}

// quantileOf is the q-quantile of vs (which it sorts).
func quantileOf(vs []float64, q float64) float64 {
	sort.Float64s(vs)
	return percentile(vs, q)
}

// latencyQuantile is the median over the latency slices (paced, RPC) of
// each slice's own quantile, picked by f.
func latencyQuantile(phases []phaseResult, f func(*phaseResult) float64) float64 {
	return median(pick(phases, f, phasePaced, phaseRPC))
}

// latencyTotals sums the latency slices: events sent, events that missed
// the SLO (failures included), samples kept and samples dropped.
func latencyTotals(phases []phaseResult) (sent, missed, samples, dropped int64) {
	for i := range phases {
		if p := &phases[i]; p.kind == phasePaced || p.kind == phaseRPC {
			sent += p.sent
			missed += int64(p.overSLO)
			samples += int64(p.samples)
			dropped += int64(p.dropped)
		}
	}
	return sent, missed, samples, dropped
}

// sloOKRatio is the share of events that met the SLO over the best keep of
// the latency slices, ranked by their own share.
func sloOKRatio(phases []phaseResult, keep float64) float64 {
	var lat []*phaseResult
	for i := range phases {
		if p := &phases[i]; p.kind == phasePaced || p.kind == phaseRPC {
			lat = append(lat, p)
		}
	}
	sort.SliceStable(lat, func(i, j int) bool { return lat[i].okRatio() > lat[j].okRatio() })
	var sent, missed int64
	for _, p := range lat[:int(math.Ceil(float64(len(lat))*keep))] {
		sent += p.sent
		missed += int64(p.overSLO)
	}
	return 1 - float64(missed)/float64(sent)
}

// endToEndMetrics folds the slices into the client-visible metrics. Times
// of closed-loop slices and of set-ups are scaled to the reference core and
// read at the quiet-host quantile: the host's neighbours slow a slice down
// by up to a half and never speed one up, so the best slices are the
// program's own speed. Open-loop latency is timer-bound and steady; it is
// the median over the paced slices.
func endToEndMetrics(res *runResult, spec *workloadSpec, phases []phaseResult) {
	steady := steadyOnly(phases)
	quiet := func(f func(*phaseResult) float64, q float64, kinds ...phaseKind) float64 {
		return quantileOf(pick(steady, f, kinds...), q)
	}
	res.values["throughput_eps"] = quiet(func(p *phaseResult) float64 { return p.eps() / p.scale() },
		1-quietQuantile, phaseSat, phaseRPC)
	res.values["cpu_us_per_event"] = quiet(func(p *phaseResult) float64 { return p.cpuUSPerEvent() * p.scale() },
		quietQuantile, phaseSat, phaseRPC)
	res.values["setup_s"] = quiet(func(p *phaseResult) float64 { return p.elapsed.Seconds() * p.scale() },
		setupQuantile, phaseSetup)
	if spec.RPC {
		res.values["latency_p50_us"] = quiet(func(p *phaseResult) float64 { return p.p50 * p.scale() }, quietQuantile, phaseRPC)
	} else {
		res.values["latency_p50_us"] = latencyQuantile(phases, func(p *phaseResult) float64 { return p.p50 })
	}
	res.values["allocs_per_event"] = median(pick(phases, (*phaseResult).allocsPerEvent, phaseSat, phaseRPC))
	res.values["slo_ok_ratio"] = sloOKRatio(phases, sloKeep)

	eps := pick(phases, (*phaseResult).eps, phaseSat, phaseRPC)
	setups := pick(phases, func(p *phaseResult) float64 { return p.elapsed.Seconds() }, phaseSetup)
	res.notef("throughput_eps: %d closed-loop slices of %v, %d steady; as measured: median %.0f, min %.0f max %.0f",
		len(eps), time.Duration(sliceSeconds*float64(time.Second)), len(pick(steady, (*phaseResult).eps, phaseSat, phaseRPC)),
		median(eps), minOf(eps), maxOf(eps))
	res.notef("setup_s: %d set-ups; as measured: median %.4f, min %.4f max %.4f", len(setups), median(setups), minOf(setups), maxOf(setups))
	sent, missed, samples, dropped := latencyTotals(phases)
	res.notef("latency: %d samples over %d slices (%d past recorder capacity); as measured: median of slice p50s %.1f us, %d of %d sent missed slo_us %.0f",
		samples, len(pick(phases, (*phaseResult).eps, phasePaced, phaseRPC)), dropped,
		latencyQuantile(phases, func(p *phaseResult) float64 { return p.p50 }), missed, sent, spec.SLOus)
}

// layerMetrics derives the scraped per-layer metrics from the two scrapes
// around the measured phases, the sampler, the generator's own samples and
// the background loops.
func layerMetrics(res *runResult, f *fleet, g *loadgen, bg *background, phases []phaseResult, before, after scrape, smp *sampler) {
	v := res.values
	delta := func(name string) float64 { return after.prom[name] - before.prom[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var events, failed, sent float64
	for i := range phases {
		events += float64(phases[i].ok())
		failed += float64(phases[i].failed)
		sent += float64(phases[i].sent)
	}
	events += float64(bg.attempted - bg.failed)

	v["transport.rw_syscalls_per_event"] = ratio(after.syscalls-before.syscalls, events)
	v["transport.wire_bytes_per_event"] = ratio(after.wireBytes-before.wireBytes, events)
	v["transport.mux_dropped_responses"] = float64(after.mux.DroppedResponses - before.mux.DroppedResponses)
	v["transport.mux_slots_in_use_max"] = smp.slotsMax

	flushes := after.coalFlush - before.coalFlush
	v["ingress.events_per_frame"] = ratio(after.coalEv-before.coalEv, flushes)
	v["ingress.fill_ratio"] = ratio(v["ingress.events_per_frame"], float64(after.maxBatch))
	v["ingress.flush_linger_share"] = ratio(after.coalLing-before.coalLing, flushes)
	issue := g.issueNS.sortedUS()
	v["ingress.go_issue_ns"] = percentile(issue, 0.5) * 1e3
	v["ingress.go_block_us_p90"] = percentile(issue, 0.9)
	res.notef("ingress.go_issue_ns / go_block_us_p90: %d sampled Client.Go calls (1 in %d, paced slices)", len(issue), issueSampleEvery)

	v["node.forward_ratio"] = ratio(delta("aeon_node_submits_forwarded_total"), events)
	v["node.events_per_batch_frame"] = ratio(delta("aeon_node_batch_events_total"), delta("aeon_node_batch_frames_total"))
	v["node.submit_handler_us_p50"], v["node.submit_handler_us_p99"] = f.summary("aeon_node_submit_seconds")
	v["node.batch_handler_us_p50"], v["node.batch_handler_us_p99"] = f.summary("aeon_node_batch_seconds")
	v["node.forward_us_p50"], _ = f.summary("aeon_node_forward_seconds")
	var perNode []float64
	for i := range after.completed {
		perNode = append(perNode, after.completed[i]-before.completed[i])
	}
	lo, hi := minMax(perNode)
	v["node.exec_imbalance"] = ratio(hi, lo)

	v["core.event_us_p50"], v["core.event_us_p99"] = f.summary("aeon_event_latency_seconds")
	v["core.backpressure_total"] = delta("aeon_backpressure_total")
	v["core.exec_queue_depth_max"] = smp.queueDepthMax
	v["core.subevent_errors"] = delta("aeon_subevent_errors_total")
	var subcalls float64
	for i := range g.pool {
		subcalls += float64(g.pool[i].SubCalls)
	}
	v["core.subcalls_per_event"] = subcalls / float64(len(g.pool))

	v["ownership.contexts"] = float64(f.dep.Nodes[0].Runtime().Graph().Len())

	v["cloudstore.server_ops_per_event"] = ratio(after.storeOps-before.storeOps, events)
	v["cloudstore.quorum_failures"] = delta("aeon_store_quorum_failures_total")
	v["cloudstore.fence_advances"] = delta("aeon_store_fence_advances_total")

	v["replication.appends"] = delta("aeon_replication_appends_total")
	v["replication.conflicts"] = delta("aeon_replication_conflicts_total")
	v["replication.lag_max"] = smp.lagMax
	v["replication.mutation_event_us_p50"] = median(bg.provisionUS)
	res.notef("replication.mutation_event_us_p50: %d provisions", len(bg.provisionUS))

	groups := delta("aeon_migration_groups_total")
	v["migration.groups_moved"] = groups
	moves := append([]float64(nil), bg.moveMS...)
	sort.Float64s(moves)
	v["migration.group_move_ms_p50"] = percentile(moves, 0.5)
	v["migration.group_move_ms_p90"] = percentile(moves, 0.9)
	stopP50, _ := f.summary("aeon_migration_stop_seconds")
	v["migration.stop_window_ms_p50"] = stopP50 / 1e3
	v["migration.members_per_group"] = ratio(delta("aeon_migration_members_total"), groups)
	v["migration.bytes_per_group"] = ratio(delta("aeon_migration_bytes_moved_total"), groups)
	v["migration.stop_retries"] = delta("aeon_migration_stop_retries_total")
	res.notef("migration.group_move_ms_*: %d moves", len(moves))

	v["ops.scrape_ms"] = float64(after.took.Nanoseconds()) / 1e6 / float64(len(f.dep.Nodes))

	late := g.lateNS.sortedUS()
	v["loadgen.late_us_p50"] = percentile(late, 0.5)
	v["loadgen.late_us_p99"] = percentile(late, 0.99)
	v["loadgen.backlog_growth"] = median(pick(phases, func(p *phaseResult) float64 { return float64(p.backlog) }, phasePaced))
	v["loadgen.latency_p90_us"] = latencyQuantile(phases, func(p *phaseResult) float64 { return p.p90 })
	v["loadgen.latency_p99_us"] = latencyQuantile(phases, func(p *phaseResult) float64 { return p.p99 })
	v["loadgen.latency_p999_us"] = latencyQuantile(phases, func(p *phaseResult) float64 { return p.p999 })
	latSent, missed, latSamples, _ := latencyTotals(phases)
	perPhase := float64(latSamples) / float64(len(pick(phases, (*phaseResult).eps, phasePaced, phaseRPC)))
	res.notef("loadgen.latency_p90_us / p99_us / p999_us: per-slice tails, ≈%.0f / ≈%.0f / ≈%.0f samples beyond each per slice",
		perPhase*0.1, perPhase*0.01, perPhase*0.001)
	v["loadgen.slo_miss_ratio"] = ratio(float64(missed), float64(latSent))
	v["loadgen.fail_ratio"] = ratio(failed+float64(bg.failed), sent+float64(bg.attempted))

	first, last := phases[0].before, phases[len(phases)-1].after
	v["proc.gc_cycles"] = float64(last.gcCycles - first.gcCycles)
	v["proc.gc_pause_total_ms"] = float64(last.gcPauseNs-first.gcPauseNs) / 1e6
	v["proc.alloc_bytes_per_event"] = median(pick(phases, (*phaseResult).allocBytesPerEvent, phaseSat, phaseRPC))

	// Each workload must load the layers it was chosen for, and only those.
	if f.spec.Elastic {
		if groups == 0 || v["node.forward_ratio"] == 0 {
			res.mismatch++
			logf("layer check: iot_elastic moved %v groups with forward ratio %v; both must be > 0", groups, v["node.forward_ratio"])
		}
	} else if groups != 0 || v["cloudstore.server_ops_per_event"] != 0 {
		res.mismatch++
		logf("layer check: %s moved %v groups and made %v store ops per event; both must be 0",
			f.spec.Name, groups, v["cloudstore.server_ops_per_event"])
	}
}
