// Command aeon-bench regenerates the paper's evaluation tables and figures
// (paper figures only; benchmark/run.sh measures the system).
//
// Usage:
//
//	aeon-bench -exp fig5a            # one paper figure
//	aeon-bench -exp all -quick       # all nine, CI-speed
//	aeon-bench -exp fig8 -csv        # CSV, for plotting
//	aeon-bench -list                 # available figures
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"aeon/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aeon-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "paper figure to regenerate (comma list, or 'all')")
		quick    = flag.Bool("quick", false, "shrink sweeps and durations")
		duration = flag.Duration("duration", 0, "override per-point measurement duration")
		seed     = flag.Int64("seed", 1, "workload seed")
		list     = flag.Bool("list", false, "list the paper figures and exit")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (taken after the run) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aeon-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "aeon-bench: memprofile:", err)
			}
		}()
	}

	if *list {
		fmt.Println(strings.Join(bench.Experiments(), "\n"))
		return nil
	}
	opts := bench.Options{
		Quick:    *quick,
		Duration: *duration,
		Seed:     *seed,
		Verbose:  true,
		Out:      os.Stderr,
	}
	var names []string
	if *exp == "all" {
		names = bench.Experiments()
	} else {
		for _, n := range strings.Split(*exp, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	for _, name := range names {
		start := time.Now()
		tables, err := bench.Run(name, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, t := range tables {
			if *csv {
				fmt.Printf("# %s\n%s", t.Title, t.CSV())
			} else {
				t.Fprint(os.Stdout)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
