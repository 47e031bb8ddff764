package main

import "fmt"

// Run-shape constants. They are part of the benchmark's definition: a perf
// PR never changes them, and re-basing one is its own benchmark issue.
const (
	// fleetProcs is the GOMAXPROCS the benchmark gives itself. The fleet and
	// the generator share one scheduler thread: with two, where a woken
	// goroutine lands (same thread, or the other one behind a futex wake)
	// moves per-event cost by a factor of two from one 250 ms slice to the
	// next on this 2-vCPU host, and no run length averages that out.
	fleetProcs = 1
	// closedCallers closed-loop callers drive the saturation and RPC slices.
	closedCallers = 2
	// satBatch events ride one Client.SubmitBatch call of a saturation
	// slice: ~96 per node and frame on two nodes, 64 on three.
	satBatch = 192
	// One cycle is slicesPerCycle closed-loop slices of sliceSeconds, then
	// (unless RPC) one open-loop slice of pacedSeconds, then one timed
	// set-up of a throw-away fleet. The reference kernel (calibrate) is
	// timed between any two of them. Cycles repeat until --seconds are used.
	slicesPerCycle = 6
	sliceSeconds   = 0.025
	pacedSeconds   = 0.100
	// A slice whose two adjacent reference timings differ by more than
	// refTolerance saw the core change speed; its times are not used.
	refTolerance = 0.05
	// calibRefUS is the reference kernel's time on the reference core: every
	// time-derived figure of a closed-loop slice is scaled by calibRefUS ÷
	// (the kernel's time beside the slice). 750 µs is this host's core at
	// its faster clock.
	calibRefUS = 750.0
	// quietQuantile: a closed-loop figure is read at the best 1 % of the
	// run's 650 to 1300 slices (throughput at the 0.99 quantile, costs at
	// the 0.01 one) — the host's neighbours only ever slow a slice down.
	// setupQuantile is the same for the run's 110 to 180 set-ups.
	quietQuantile = 0.01
	setupQuantile = 0.05
	// sloKeep: slo_ok_ratio is taken over this share of the latency
	// slices, best first; the rest are where the host stalled the process.
	sloKeep = 0.80
	// warmup is driven before anything is measured: routes learned, mux
	// connections open, frame pools filled.
	warmupSeconds = 1.0
	// poolSize ops are generated from --seed before the run and cycled, so
	// the generator's own cost and allocations stay out of the per-event
	// figures and the fleet only ever sees generated ops.
	poolSize = 1 << 16
	// clientWindow is ingress.Config.Window of both clients.
	clientWindow = 4096
	// provisionEvery and churnPause shape iot_elastic's background load.
	provisionEverySeconds = 0.05 // 20 provisions/s
	churnPauseSeconds     = 0.25
	// replayEvents single events and replayBatches 128-event batches are
	// replayed stage by stage in the traced run.
	replayEvents  = 10000
	replayBatches = 200
	replayBatch   = 128
)

// workloadSpec is one row of the fixed workload table.
type workloadSpec struct {
	Name string
	// Why is the one line BENCHMARK.json carries.
	Why string
	// Nodes is the fleet size (one AEON server per node).
	Nodes int
	// Scenario is "bank", "social" or "iot".
	Scenario string
	// RPC makes the closed-loop slices synchronous Client.Submit calls (one
	// event per frame, no coalescer), which then serve for latency too.
	// Otherwise they are Client.SubmitBatch calls of satBatch events, and
	// latency comes from open-loop slices of Client.Go futures through the
	// coalescer.
	RPC bool
	// PaceEPS is the open-loop rate of the open-loop slices (0 for RPC).
	PaceEPS int
	// SLOus is the latency limit behind slo_ok_ratio.
	SLOus float64
	// Elastic adds the store plane, the replicated mutation log, the
	// provision stream and the migration churn loop.
	Elastic bool
}

// Scenario sizes.
const (
	bankAccounts    = 64
	bankInitial     = 1000
	socialPodSize   = 8
	socialDepth     = 4
	iotSensors      = 32
	iotStoreParts   = 2
	bankDepositPct  = 90
	rpcSLOus        = 1000
	pacedSLOus      = 10000
	bankBatchPace   = 50000
	socialPace      = 30000
	iotPace         = 30000
	defaultSeed     = 1
	defaultSeconds  = 30
	traceSpanBudget = 1 << 18
)

var workloads = []workloadSpec{
	{
		Name:     "bank_rpc",
		Why:      "closed-loop Client.Submit, one event per frame: wakeups, syscalls and the single-frame codec dominate; the only latency not timer-bound",
		Nodes:    2,
		Scenario: "bank",
		RPC:      true,
		SLOus:    rpcSLOus,
	},
	{
		Name:     "bank_batch",
		Why:      "same fleet and op mix in batch frames (SubmitBatch closed loop, Go futures paced): batch codec and executor frame drain dominate, wakeups amortise away",
		Nodes:    2,
		Scenario: "bank",
		PaceEPS:  bankBatchPace,
		SLOus:    pacedSLOus,
	},
	{
		Name:     "social_fanout",
		Why:      "multi-actor events over shared ownership (post writes 8 timelines under a virtual-join dominator): ownership resolve, core locks and sub-calls do the work, the wire is minor",
		Nodes:    2,
		Scenario: "social",
		PaceEPS:  socialPace,
		SLOus:    pacedSLOus,
	},
	{
		Name:     "iot_elastic",
		Why:      "ingest and rollup while region groups migrate between 3 servers and sensors are provisioned through the replicated log: migration, cloudstore, replication, route repair",
		Nodes:    3,
		Scenario: "iot",
		PaceEPS:  iotPace,
		SLOus:    pacedSLOus,
		Elastic:  true,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen (0 for per-layer metrics, which have none).
	Bound float64
}

// endToEnd are what a client of the fleet sees. Three of the issue's nine
// are carried differently. The driver's contract forbids metrics that read
// 0, so fail_ratio is the result line's failed ÷ attempted and
// slo_miss_ratio is reported as its complement slo_ok_ratio. latency_p90_us
// needed a bound above the contract's 0.25 whenever the host was busy
// (10-seed spread 0.31–0.46 on bank_rpc and iot_elastic), so by the issue's
// own rule it is a per-layer metric, loadgen.latency_p90_us; the tail a
// client sees is gated through slo_ok_ratio.
var endToEnd = []metricDef{
	{"throughput_eps", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"slo_ok_ratio", "ratio", "higher", 0.05},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"allocs_per_event", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, named
// module.metric. Every workload reports every one; a layer the workload
// does not load reads 0 (and the run asserts that it does).
var perLayer = []metricDef{
	{Name: "schema.submit_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "schema.submit_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "schema.resp_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "schema.batch_encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "schema.batch_decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "schema.batch_resp_codec_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "schema.frame_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "schema.codec_allocs_per_event", Unit: "count", Better: "lower"},

	{Name: "transport.mux_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.mux_rtt_us_p90", Unit: "us", Better: "lower"},
	{Name: "transport.mux_batch_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.rw_syscalls_per_event", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "transport.mux_dropped_responses", Unit: "count", Better: "lower"},
	{Name: "transport.mux_slots_in_use_max", Unit: "count", Better: "lower"},

	{Name: "ingress.events_per_frame", Unit: "count", Better: "higher"},
	{Name: "ingress.fill_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ingress.flush_linger_share", Unit: "ratio", Better: "lower"},
	{Name: "ingress.go_issue_ns", Unit: "ns", Better: "lower"},
	{Name: "ingress.go_block_us_p90", Unit: "us", Better: "lower"},

	{Name: "node.forward_ratio", Unit: "ratio", Better: "lower"},
	{Name: "node.events_per_batch_frame", Unit: "count", Better: "higher"},
	{Name: "node.submit_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "node.submit_handler_us_p99", Unit: "us", Better: "lower"},
	{Name: "node.batch_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "node.batch_handler_us_p99", Unit: "us", Better: "lower"},
	{Name: "node.forward_us_p50", Unit: "us", Better: "lower"},
	{Name: "node.exec_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "node.local_submit_ns", Unit: "ns", Better: "lower"},

	{Name: "core.event_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.event_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.backpressure_total", Unit: "count", Better: "lower"},
	{Name: "core.exec_queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "core.subevent_errors", Unit: "count", Better: "lower"},
	{Name: "core.submit_single_ns", Unit: "ns", Better: "lower"},
	{Name: "core.submit_multi_ns", Unit: "ns", Better: "lower"},
	{Name: "core.subcalls_per_event", Unit: "count", Better: "lower"},

	{Name: "ownership.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "ownership.resolve_multiowner_ns", Unit: "ns", Better: "lower"},
	{Name: "ownership.mutate_us", Unit: "us", Better: "lower"},
	{Name: "ownership.contexts", Unit: "count", Better: "lower"},

	{Name: "cloudstore.put_us_p50", Unit: "us", Better: "lower"},
	{Name: "cloudstore.get_us_p50", Unit: "us", Better: "lower"},
	{Name: "cloudstore.cas_us_p50", Unit: "us", Better: "lower"},
	{Name: "cloudstore.server_ops_per_event", Unit: "count", Better: "lower"},
	{Name: "cloudstore.quorum_failures", Unit: "count", Better: "lower"},
	{Name: "cloudstore.fence_advances", Unit: "count", Better: "lower"},

	{Name: "replication.appends", Unit: "count", Better: "lower"},
	{Name: "replication.conflicts", Unit: "count", Better: "lower"},
	{Name: "replication.lag_max", Unit: "count", Better: "lower"},
	{Name: "replication.mutation_event_us_p50", Unit: "us", Better: "lower"},

	{Name: "migration.groups_moved", Unit: "count", Better: "higher"},
	{Name: "migration.group_move_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "migration.group_move_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "migration.stop_window_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "migration.members_per_group", Unit: "count", Better: "lower"},
	{Name: "migration.bytes_per_group", Unit: "B", Better: "lower"},
	{Name: "migration.stop_retries", Unit: "count", Better: "lower"},

	{Name: "ops.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ops.spans_emitted", Unit: "count", Better: "higher"},
	{Name: "ops.spans_dropped", Unit: "count", Better: "lower"},
	{Name: "ops.span_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "ops.scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.timer_floor_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_us_p50", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_us_p99", Unit: "us", Better: "lower"},
	{Name: "loadgen.gen_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "loadgen.backlog_growth", Unit: "count", Better: "lower"},
	{Name: "loadgen.latency_p90_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.latency_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.slo_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "loadgen.stage_sum_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.stage_e2e_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.stage_residual_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.batch_stage_sum_us_per_event", Unit: "us", Better: "lower"},
	{Name: "loadgen.batch_stage_e2e_us_per_event", Unit: "us", Better: "lower"},

	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.alloc_bytes_per_event", Unit: "B", Better: "lower"},
}
