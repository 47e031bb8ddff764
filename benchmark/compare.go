package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// suiteReport is what `suite` writes and `compare` reads: the benchmark's
// definition, the environment, and every round's values. It is the record
// BENCHMARK.json cannot hold (its keys are fixed by the driver's contract).
type suiteReport struct {
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim       *string                           `json:"claim"`
	Environment map[string]any                    `json:"environment"`
	Constants   map[string]any                    `json:"constants"`
	Workloads   []workloadSpec                    `json:"workloads"`
	Rounds      int                               `json:"rounds"`
	Seconds     float64                           `json:"seconds"`
	Seed        int64                             `json:"seed"`
	EndToEnd    map[string]map[string]*metricRuns `json:"end_to_end"` // workload → metric
	PerLayer    map[string]map[string]metricValue `json:"per_layer"`  // workload → metric
	Attempted   map[string]int64                  `json:"attempted"`
	Failed      map[string]int64                  `json:"failed"`
}

// metricRuns is one end-to-end metric on one workload over the rounds.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

func constants() map[string]any {
	return map[string]any{
		"fleet_procs": fleetProcs, "closed_callers": closedCallers, "sat_batch": satBatch,
		"slices_per_cycle": slicesPerCycle, "slice_seconds": sliceSeconds, "paced_seconds": pacedSeconds,
		"ref_tolerance": refTolerance, "calib_ref_us": calibRefUS, "quiet_quantile": quietQuantile,
		"setup_quantile": setupQuantile, "slo_keep": sloKeep,
		"warmup_seconds": warmupSeconds, "pool_size": poolSize, "client_window": clientWindow,
		"bank_accounts_per_bank": bankAccounts, "bank_initial_balance": bankInitial, "bank_deposit_pct": bankDepositPct,
		"social_pod_size": socialPodSize, "social_depth": socialDepth,
		"iot_sensors_per_region": iotSensors, "iot_store_parts": iotStoreParts,
		"provision_every_seconds": provisionEverySeconds, "churn_pause_seconds": churnPauseSeconds,
		"replay_events": replayEvents, "replay_batches": replayBatches, "replay_batch": replayBatch,
	}
}

// gitCommit names the measured commit when the checkout is a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child re-executes this binary for one measured run and parses the result
// line, passing the readable report through.
func child(spec *workloadSpec, seed int64, seconds float64, trace int) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", spec.Name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes())
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	text := strings.TrimRight(out.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	fmt.Println(text[:max(cut, 0)])
	var line resultLine
	if err := json.Unmarshal([]byte(text[cut+1:]), &line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", spec.Name, err)
	}
	return &line, nil
}

// suiteMain runs every workload for --rounds rounds, each run in a fresh
// child process and the workloads interleaved round-robin so machine drift
// spreads evenly, then one traced run per workload.
func suiteMain(args []string) int {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	rounds := fs.Int("rounds", 5, "rounds; every reported metric is the median over them")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per run")
	seed := fs.Int64("seed", defaultSeed, "round r runs with seed+r")
	noTrace := fs.Bool("no-trace", false, "skip the traced runs (per-layer metrics)")
	jsonPath := fs.String("json", "", "write the report here as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep := &suiteReport{
		Environment: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": fleetProcs, "go": runtime.Version(),
			"fleet": "in-process, transport.NewTCPMesh() on host loopback, no injected delay",
			"when":  time.Now().UTC().Format(time.RFC3339), "loadgen.timer_floor_us": timerFloorUS(),
			"commit": gitCommit(),
		},
		Constants: constants(), Workloads: workloads,
		Rounds: *rounds, Seconds: *seconds, Seed: *seed,
		EndToEnd:  make(map[string]map[string]*metricRuns),
		PerLayer:  make(map[string]map[string]metricValue),
		Attempted: make(map[string]int64), Failed: make(map[string]int64),
	}
	code := 0
	absorb := func(spec *workloadSpec, line *resultLine) {
		rep.Attempted[spec.Name] += line.Attempted
		rep.Failed[spec.Name] += line.Failed
		if !line.Correct || line.Failed != 0 {
			logf("suite: %s: correct=%v failed=%d", spec.Name, line.Correct, line.Failed)
			code = 1
		}
	}
	for r := 0; r < *rounds; r++ {
		for i := range workloads {
			spec := &workloads[i]
			line, err := child(spec, *seed+int64(r), *seconds, 0)
			if err != nil {
				logf("suite: %v", err)
				return 1
			}
			absorb(spec, line)
			if rep.EndToEnd[spec.Name] == nil {
				rep.EndToEnd[spec.Name] = make(map[string]*metricRuns)
			}
			for _, d := range endToEnd {
				m := rep.EndToEnd[spec.Name][d.Name]
				if m == nil {
					m = &metricRuns{Unit: d.Unit, Better: d.Better, Bound: d.Bound}
					rep.EndToEnd[spec.Name][d.Name] = m
				}
				m.Values = append(m.Values, line.Metrics[d.Name].Value)
			}
		}
	}
	for _, byMetric := range rep.EndToEnd {
		for _, m := range byMetric {
			m.Median = median(m.Values)
			m.Min, m.Max = minMax(m.Values)
		}
	}
	if !*noTrace {
		for i := range workloads {
			spec := &workloads[i]
			line, err := child(spec, *seed, *seconds, 1)
			if err != nil {
				logf("suite: %v", err)
				return 1
			}
			absorb(spec, line)
			rep.PerLayer[spec.Name] = line.Metrics
		}
	}

	fmt.Printf("\nmedian over %d rounds of %gs [min .. max]\n", *rounds, *seconds)
	for i := range workloads {
		name := workloads[i].Name
		fmt.Printf("%s  attempted %d  failed %d\n", name, rep.Attempted[name], rep.Failed[name])
		for _, d := range endToEnd {
			m := rep.EndToEnd[name][d.Name]
			fmt.Printf("  %-20s %14.4f %-6s [%.4f .. %.4f]\n", d.Name, m.Median, d.Unit, m.Min, m.Max)
		}
	}
	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			logf("suite: write %s: %v", *jsonPath, err)
			return 1
		}
	}
	return code
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// classify compares B against base A on one metric. The ratio's base is A's
// median. A side whose own min–max spread exceeds the bound cannot resolve
// a change of that size, so the row is unresolved rather than ok or worse.
func classify(a, b *metricRuns) (ratio float64, v verdict) {
	ratio = b.Median / a.Median
	spread := func(m *metricRuns) float64 { return (m.Max - m.Min) / m.Median }
	if spread(a) > a.Bound || spread(b) > a.Bound {
		return ratio, verdictUnresolved
	}
	worse := ratio - 1
	if a.Better == "higher" {
		worse = 1 - ratio
	}
	if worse > a.Bound {
		return ratio, verdictWorse
	}
	return ratio, verdictOK
}

func readReport(path string) (*suiteReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep suiteReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareMain prints one row per workload × end-to-end metric and exits
// non-zero if any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		logf("usage: compare A.json B.json   (A is the base)")
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		logf("compare: %v", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		logf("compare: %v", err)
		return 2
	}
	code := 0
	fmt.Printf("| workload | metric | A median [min..max] | B median [min..max] | B÷A | bound | verdict |\n|---|---|---|---|---|---|---|\n")
	for i := range workloads {
		name := workloads[i].Name
		for _, d := range endToEnd {
			ma, mb := a.EndToEnd[name][d.Name], b.EndToEnd[name][d.Name]
			if ma == nil || mb == nil {
				logf("compare: %s %s missing on one side", name, d.Name)
				return 2
			}
			ratio, v := classify(ma, mb)
			if v == verdictWorse {
				code = 1
			}
			fmt.Printf("| %s | %s (%s, %s) | %.4g [%.4g..%.4g] | %.4g [%.4g..%.4g] | %.3f | %.2f | %s |\n",
				name, d.Name, d.Unit, d.Better, ma.Median, ma.Min, ma.Max, mb.Median, mb.Min, mb.Max, ratio, ma.Bound, v)
		}
	}
	return code
}
