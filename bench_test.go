package aeon_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aeon"
	"aeon/internal/bench"
)

// runExperiment executes one paper experiment in quick mode and reports its
// headline number as a benchmark metric. These benches regenerate the
// paper's tables/figures end to end; use cmd/aeon-bench for the full-size
// sweeps.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := bench.Run(name, bench.Options{
			Quick:    true,
			Duration: 400 * time.Millisecond,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if i == 0 {
			for _, t := range tables {
				b.Logf("\n%s\n%s", t.Title, t.CSV())
			}
		}
	}
}

// BenchmarkFig5aGameScaleOut regenerates Figure 5a (game scale-out).
func BenchmarkFig5aGameScaleOut(b *testing.B) { runExperiment(b, "fig5a") }

// BenchmarkFig5bGamePerformance regenerates Figure 5b (game latency vs
// throughput).
func BenchmarkFig5bGamePerformance(b *testing.B) { runExperiment(b, "fig5b") }

// BenchmarkFig6aTPCCScaleOut regenerates Figure 6a (TPC-C scale-out).
func BenchmarkFig6aTPCCScaleOut(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkFig6bTPCCPerformance regenerates Figure 6b (TPC-C latency vs
// throughput).
func BenchmarkFig6bTPCCPerformance(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkFig7Elasticity regenerates Figures 7a/7b (elastic vs static).
func BenchmarkFig7Elasticity(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkTable1SLACost regenerates Table 1 (SLA violations and cost).
func BenchmarkTable1SLACost(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig8MigrationImpact regenerates Figure 8 (throughput while
// migrating contexts).
func BenchmarkFig8MigrationImpact(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9MigrationThroughput regenerates Figure 9 (eManager migration
// throughput).
func BenchmarkFig9MigrationThroughput(b *testing.B) { runExperiment(b, "fig9") }

// --- Ablation benches (DESIGN.md § 6) --------------------------------------

// ablationWorld builds a root context owning N leaves, with methods that
// exercise specific protocol features.
func ablationWorld(b *testing.B, leafCost time.Duration) (*aeon.System, aeon.ContextID, []aeon.ContextID) {
	b.Helper()
	s := aeon.NewSchema()
	leaf := s.MustDeclareClass("Leaf", func() any { return new(int) })
	leaf.MustDeclareMethod("bump", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		n := call.State().(*int)
		*n++
		return aeon.Int(*n), nil
	}, aeon.Cost(leafCost))
	leaf.MustDeclareMethod("peek", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		return aeon.Int(*call.State().(*int)), nil
	}, aeon.RO(), aeon.Cost(leafCost))

	root := s.MustDeclareClass("Root", nil)
	root.MustDeclareMethod("fanSync", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		leaves, err := call.Children("Leaf")
		if err != nil {
			return aeon.Value{}, err
		}
		for _, l := range leaves {
			if _, err := call.Sync(l, "bump"); err != nil {
				return aeon.Value{}, err
			}
		}
		return aeon.Int(len(leaves)), nil
	}, aeon.MayCall("Leaf", "bump"))
	root.MustDeclareMethod("fanAsync", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		leaves, err := call.Children("Leaf")
		if err != nil {
			return aeon.Value{}, err
		}
		results := make([]aeon.AsyncResult, 0, len(leaves))
		for _, l := range leaves {
			results = append(results, call.Async(l, "bump"))
		}
		for _, r := range results {
			if _, err := r.Wait(); err != nil {
				return aeon.Value{}, err
			}
		}
		return aeon.Int(len(leaves)), nil
	}, aeon.MayCall("Leaf", "bump"))
	root.MustDeclareMethod("crabTail", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		return aeon.Value{}, call.Crab(args[0].ID(), "bump")
	}, aeon.MayCall("Leaf", "bump"))
	root.MustDeclareMethod("syncTail", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		return call.Sync(args[0].ID(), "bump")
	}, aeon.MayCall("Leaf", "bump"))

	sys, err := aeon.New(
		aeon.WithSchema(s),
		aeon.WithServers(4, aeon.M3Large),
		aeon.WithNetwork(aeon.SimNetworkConfig{}), // isolate protocol costs
	)
	if err != nil {
		b.Fatal(err)
	}
	rootID, err := sys.Runtime.CreateContext("Root")
	if err != nil {
		b.Fatal(err)
	}
	var leaves []aeon.ContextID
	for i := 0; i < 8; i++ {
		id, err := sys.Runtime.CreateContext("Leaf", rootID)
		if err != nil {
			b.Fatal(err)
		}
		leaves = append(leaves, id)
	}
	return sys, rootID, leaves
}

// BenchmarkAblationAsyncCalls compares synchronous vs asynchronous intra-
// event fan-out (the `async` decorator of § 3).
func BenchmarkAblationAsyncCalls(b *testing.B) {
	for _, mode := range []string{"sync", "async"} {
		b.Run(mode, func(b *testing.B) {
			sys, root, _ := ablationWorld(b, 100*time.Microsecond)
			defer sys.Close()
			method := "fanSync"
			if mode == "async" {
				method = "fanAsync"
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Runtime.Submit(root, method); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReadOnly compares concurrent readonly events against
// exclusive ones on a single hot context (the read-lock sharing of
// Algorithm 2, line 11).
func BenchmarkAblationReadOnly(b *testing.B) {
	for _, mode := range []string{"exclusive", "readonly"} {
		b.Run(mode, func(b *testing.B) {
			sys, _, leaves := ablationWorld(b, 50*time.Microsecond)
			defer sys.Close()
			method := "bump"
			if mode == "readonly" {
				method = "peek"
			}
			hot := leaves[0]
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/8 + 1
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := sys.Runtime.Submit(hot, method); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkAblationCrab compares a tail call with and without the § 6.1.2
// early release under contention on the parent.
func BenchmarkAblationCrab(b *testing.B) {
	for _, mode := range []string{"hold", "crab"} {
		b.Run(mode, func(b *testing.B) {
			sys, root, leaves := ablationWorld(b, 200*time.Microsecond)
			defer sys.Close()
			method := "syncTail"
			if mode == "crab" {
				method = "crabTail"
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/8 + 1
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := sys.Runtime.Submit(root, method, leaves[(g+i)%len(leaves)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// BenchmarkParallelDisjointSubmit measures the runtime hot path itself:
// events on disjoint single-context ownership trees, zero simulated network
// and zero method cost, so all that remains is registry lookup, directory
// routing, activation, and latency recording. Run with -cpu 1,4,8 to see
// whether throughput scales with cores (it cannot while any per-event
// operation takes a process-global lock).
func BenchmarkParallelDisjointSubmit(b *testing.B) {
	s := aeon.NewSchema()
	leaf := s.MustDeclareClass("Leaf", func() any { return new(int) })
	leaf.MustDeclareMethod("bump", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		n := call.State().(*int)
		*n++
		return aeon.Int(*n), nil
	})
	sys, err := aeon.New(aeon.WithSchema(s), aeon.WithServers(8, aeon.M3Large),
		aeon.WithNetwork(aeon.SimNetworkConfig{}),
		aeon.WithRuntimeConfig(aeon.RuntimeConfig{ChargeClientHops: false}))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()

	const nCtx = 1024
	ids := make([]aeon.ContextID, nCtx)
	for i := range ids {
		if ids[i], err = sys.Runtime.CreateContext("Leaf"); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each worker cycles within a private 64-context window (disjoint up
		// to 16 workers) so events never conflict; contention, if any, is
		// purely runtime-structural.
		base := (int(next.Add(1)-1) * 64) % nCtx
		i := 0
		for pb.Next() {
			id := ids[base+i%64]
			i++
			if _, err := sys.Runtime.Submit(id, "bump"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkAblationDominatorParallelism compares events on contexts with
// private dominators (parallel) against events funneled through one shared
// dominator — the heart of the ownership-network design.
func BenchmarkAblationDominatorParallelism(b *testing.B) {
	for _, mode := range []string{"shared-dominator", "private-dominators"} {
		b.Run(mode, func(b *testing.B) {
			s := aeon.NewSchema()
			leaf := s.MustDeclareClass("Leaf", func() any { return new(int) })
			leaf.MustDeclareMethod("bump", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
				n := call.State().(*int)
				*n++
				return aeon.Int(*n), nil
			}, aeon.Cost(100*time.Microsecond))
			owner := s.MustDeclareClass("Owner", nil)
			owner.MustDeclareMethod("bumpLeaf", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
				return call.Sync(args[0].ID(), "bump")
			}, aeon.MayCall("Leaf", "bump"))
			s.MustDeclareClass("Room", nil)
			sys, err := aeon.New(aeon.WithSchema(s), aeon.WithServers(4, aeon.M3Large),
				aeon.WithNetwork(aeon.SimNetworkConfig{}))
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()

			room, err := sys.Runtime.CreateContext("Room")
			if err != nil {
				b.Fatal(err)
			}
			const n = 8
			owners := make([]aeon.ContextID, n)
			leaves := make([]aeon.ContextID, n)
			for i := range owners {
				owners[i], err = sys.Runtime.CreateContext("Owner", room)
				if err != nil {
					b.Fatal(err)
				}
			}
			for i := range leaves {
				if mode == "shared-dominator" {
					// The room also owns every leaf, so dom(owner) = room:
					// all owner events serialize at one context (the
					// Figure 3 Kings Room situation).
					leaves[i], err = sys.Runtime.CreateContext("Leaf",
						owners[i], room)
				} else {
					// Private subtrees: dom(owner) = owner, full
					// parallelism.
					leaves[i], err = sys.Runtime.CreateContext("Leaf", owners[i])
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/n + 1
			for g := 0; g < n; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := sys.Runtime.Submit(owners[g], "bumpLeaf", leaves[g]); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
