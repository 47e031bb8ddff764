// Package lint holds checks that read the tree's source instead of running
// it. It has no non-test code.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Why a time.Sleep is allowed to stay.
const (
	// modelled stands for a cost of the system being reproduced: a network
	// hop, a store round trip, CPU work, migration's δ, a client's think
	// time.
	modelled = "modelled latency"
	// backoff paces a retry after a failure.
	backoff = "backoff"
	// probe paces a poll of state that nothing signals.
	probe = "probe"
	// work is a test handler whose job is to take time.
	work = "test work"
)

// Why a time.After is allowed to stay. Each is a test's bounded wait.
const (
	// guard bounds a wait for something that must happen: the test fails
	// when it fires.
	guard = "guard"
	// quiet is a window in which something must not happen: the test
	// passes when it fires, and a slow machine can only hide a failure,
	// never invent one.
	quiet = "quiet window"
)

// site is one function's calls of a timing primitive, with why they stay.
type site struct {
	class, file, fn string
	n               int
}

// sleeps and afters are the ratchet: every time.Sleep and time.After call
// under internal/, keyed by file and enclosing function, with its class and
// how many calls that function makes (a function with calls of two classes
// has an entry for each). A new call fails the test until it is listed here
// with a class; a listed one that is gone fails it until its entry is
// deleted.
var sleeps = []site{
	{modelled, "bench/migration_exps.go", "Fig8", 1},
	{modelled, "cloudstore/cloudstore.go", "(*Store).charge", 1},
	{modelled, "cluster/cluster.go", "(*Server).Work", 1},
	{modelled, "core/runtime.go", "(*Runtime).CreateContextOn", 1},
	{modelled, "migration/engine.go", "(*Engine).run", 2},
	{modelled, "transport/network.go", "(*SimNetwork).Hop", 1},
	{modelled, "workload/workload.go", "RunClosedLoopSeries", 1},

	{backoff, "chaos/driver.go", "(*driver).step", 2},
	{backoff, "cloudstore/retry.go", "Retry", 1},
	{backoff, "migration/engine.go", "(*Engine).stopGroup", 1},

	{probe, "chaos/chaos.go", "(*runner).quiesce", 1},
	{probe, "chaos/chaos.go", "(*runner).readEntity", 1},
	{probe, "chaos/chaos.go", "waitUntil", 1},
	{probe, "chaos/driver.go", "(*driver).freeze", 1},
	{probe, "node/harness.go", "(*Deployment).WaitReady", 1},

	{work, "core/sharding_test.go", "blockSchema", 1},
	{work, "workload/workload_test.go", "TestClosedLoopRuns", 1},
	{work, "workload/workload_test.go", "TestRunRamp", 1},
}

var afters = []site{
	{guard, "core/lock_test.go", "TestLockExclusiveBlocks", 1},
	{guard, "core/lock_test.go", "TestLockFIFONoReaderBarging", 1},
	{guard, "core/lock_test.go", "TestLockSharedReaders", 1},
	{guard, "core/lock_test.go", "TestLockTimeoutPumpsWaitersBehind", 1},
	{guard, "core/lock_test.go", "TestLockWriterWaitsForReaders", 1},
	{guard, "core/migration_support_test.go", "TestLockGroupForMigrationTimeoutReleasesAll", 1},
	{guard, "core/runtime_test.go", "TestCrabReleasesEarly", 1},
	{guard, "core/runtime_test.go", "TestReadOnlyEventsRunConcurrently", 1},
	{guard, "core/runtime_test.go", "TestSubmitManyParallelRooms", 1},
	{guard, "core/subcall_test.go", "TestInWindowEventTakesNoDirectoryLock", 1},
	{guard, "eventwave/eventwave_test.go", "TestPipelineParallelismBelowRoot", 1},
	{guard, "ingress/batch_test.go", "(*gatedIoT).park", 1},
	{guard, "ingress/batch_test.go", "await", 1},
	{guard, "ingress/learn_test.go", "applyWithCacheLocked", 1},
	{guard, "migration/stress_test.go", "TestDisjointGroupsOverlapInTime", 1},
	{guard, "node/fault_test.go", "TestCrashedNodeFailsFastAndQueuedWorkDrains", 1},
	{guard, "node/fault_test.go", "TestDroppedCallFailsTypedNotWedged", 1},
	{guard, "node/node_test.go", "TestShutdownFrame", 1},
	{guard, "ops/ops_test.go", "TestEventNotifyWakesFollower", 1},
	{guard, "orleans/orleans_test.go", "TestDeferredReply", 1},
	{guard, "orleans/orleans_test.go", "TestStatelessWorkersRunConcurrently", 1},
	{guard, "transport/endpoint_test.go", "TestWorkerPoolNeverStrandsAJob", 1},
	{guard, "transport/muxout_test.go", "TestFlusherCaptureIsBounded", 1},
	{guard, "transport/stream_test.go", "TestMuxServerShutdownCancelsHandlers", 1},
	{guard, "transport/stream_test.go", "TestWeightedSem", 2},

	{quiet, "core/lock_test.go", "TestLockExclusiveBlocks", 1},
	{quiet, "core/lock_test.go", "TestLockFIFONoReaderBarging", 2},
	{quiet, "core/lock_test.go", "TestLockWriterWaitsForReaders", 1},
	{quiet, "core/migration_support_test.go", "TestLockGroupForMigrationStopsWholeGroup", 1},
	{quiet, "core/runtime_test.go", "TestMigrationLockDrainsAndBlocks", 1},
	{quiet, "orleans/orleans_test.go", "TestDeferredReply", 1},
	{quiet, "orleans/orleans_test.go", "TestNonReentrantWhileAwaiting", 1},
	{quiet, "transport/stream_test.go", "TestWeightedSem", 1},

	{probe, "migration/stress_test.go", "TestDisjointGroupsOverlapInTime", 1},
}

// TestSleepRatchet holds every time.Sleep and time.After under internal/ to
// the lists above.
func TestSleepRatchet(t *testing.T) {
	found, err := timeCalls("..")
	if err != nil {
		t.Fatal(err)
	}
	ratchet(t, "time.Sleep", sleeps, found["Sleep"])
	ratchet(t, "time.After", afters, found["After"])
}

// ratchet compares the calls of one primitive found per function with its
// list.
func ratchet(t *testing.T, call string, listed []site, found map[string]int) {
	t.Helper()
	want, classes := map[string]int{}, map[string][]string{}
	for _, s := range listed {
		key := s.file + " " + s.fn
		want[key] += s.n
		classes[key] = append(classes[key], s.class)
	}
	var keys []string
	for key := range want {
		keys = append(keys, key)
	}
	for key := range found {
		if want[key] == 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		switch got, n := found[key], want[key]; {
		case n == 0:
			t.Errorf("unlisted %s in %s (%d): wait on the event, or list it with a class", call, key, got)
		case got == 0:
			t.Errorf("stale entry: %s (%s) calls %s no more; delete it", key, strings.Join(classes[key], ", "), call)
		case got != n:
			t.Errorf("%s calls %s %d times, listed as %d (%s)", key, call, got, n, strings.Join(classes[key], ", "))
		}
	}
}

// timeCalls counts the time.Sleep and time.After calls in every Go file
// under root, by the function called, then by the file's path relative to
// root and its enclosing function.
func timeCalls(root string) (map[string]map[string]int, error) {
	found := map[string]map[string]int{"Sleep": {}, "After": {}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if name := timeCall(n); found[name] != nil {
					found[name][filepath.ToSlash(rel)+" "+funcName(fn)]++
				}
				return true
			})
		}
		return nil
	})
	return found, err
}

// timeCall returns the name of the time package function n calls, or "".
func timeCall(n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
		return sel.Sel.Name
	}
	return ""
}

// funcName renders a declaration as Name, or (T).Name and (*T).Name for a
// method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	return "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}
