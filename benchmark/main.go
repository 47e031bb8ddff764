// Command benchmark is the repo's one benchmark: four fleet workloads over
// TCP loopback, driven only through the external ingress SDK, checked
// against an oracle, with end-to-end metrics measured untraced and per-layer
// metrics measured from outside in a separate traced run. See README.md.
//
// One measured run (what BENCHMARK.json's command does):
//
//	bash benchmark/run.sh --workload bank_rpc --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result as one JSON object.
// Conveniences on top of it:
//
//	bash benchmark/run.sh suite   [--rounds 5] [--seconds 20] [--no-trace] [--json out.json]
//	bash benchmark/run.sh compare A.json B.json
//	bash benchmark/run.sh smoke
//	bash benchmark/run.sh definition > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "suite":
			os.Exit(suiteMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "smoke":
			os.Exit(smokeMain())
		case "definition":
			os.Exit(definitionMain())
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object a run prints last on standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (required)")
	seed := fs.Int64("seed", defaultSeed, "seeds op generation; the fleet only ever sees the generated ops")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	outDir := fs.String("out", "benchmark/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := findWorkload(*name)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *seconds < 1 {
		logf("--seconds must be at least 1")
		return 2
	}
	line, code := runOnce(runConfig{spec: spec, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir})
	if line == nil {
		return code
	}
	b, err := json.Marshal(line)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(b))
	// A wrong answer is reported through "correct": false in the result the
	// driver reads; suite and smoke turn it into a non-zero exit.
	return 0
}

// runOnce runs one workload and prints the readable report; the returned
// line is nil when the run could not produce a result.
func runOnce(cfg runConfig) (*resultLine, int) {
	runtime.GOMAXPROCS(fleetProcs)
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", cfg.spec.Name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("environment: in-process fleet of %d nodes over transport.NewTCPMesh() on host loopback, no injected delay; nproc %d GOMAXPROCS %d %s\n",
		cfg.spec.Nodes, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := runWorkload(cfg)
	if err != nil {
		logf("benchmark %s: %v", cfg.spec.Name, err)
		return nil, 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := &resultLine{
		Correct:   res.mismatch == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.values[d.Name]
		if !ok {
			logf("benchmark %s: metric %s was not measured", cfg.spec.Name, d.Name)
			return nil, 1
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-40s %16.4f %s\n", d.Name, v, d.Unit)
	}
	sort.Strings(res.notes)
	for _, n := range res.notes {
		fmt.Printf("  # %s\n", n)
	}
	fmt.Printf("  attempted %d  failed %d  fail_ratio %.6f  oracle mismatches %d\n",
		res.attempted, res.failed, float64(res.failed)/float64(res.attempted), res.mismatch)
	if res.mismatch != 0 {
		return line, 1
	}
	return line, 0
}

// smokeMain runs every workload for one second with its oracle, so a broken
// fleet shape fails in seconds.
func smokeMain() int {
	code := 0
	for i := range workloads {
		if _, c := runOnce(runConfig{spec: &workloads[i], seed: defaultSeed, seconds: 1, outDir: os.TempDir()}); c != 0 {
			code = c
		}
	}
	return code
}

// definitionMain prints BENCHMARK.json as spec.go defines it, so the two
// cannot drift when a benchmark issue re-bases a constant or a bound.
func definitionMain() int {
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		doc.EndToEnd = append(doc.EndToEnd, jsonMetric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, jsonMetric{d.Name, d.Unit, d.Better, nil})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
