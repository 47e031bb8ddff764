// Package lint holds checks that read the tree's source instead of running
// it. It has no non-test code.
package lint

import (
	"fmt"
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

// sleeps is the ratchet: every time.Sleep call under internal/, keyed by file
// and enclosing function, with its class and how many calls that function
// makes. A new sleep fails the test until it is listed here with a class; a
// listed one that is gone fails it until its entry is deleted.
var sleeps = []struct {
	class, file, fn string
	n               int
}{
	{modelled, "bench/migration_exps.go", "Fig8", 1},
	{modelled, "cloudstore/cloudstore.go", "(*Store).charge", 1},
	{modelled, "cluster/cluster.go", "(*Server).Work", 1},
	{modelled, "core/runtime.go", "(*Runtime).CreateContextOn", 1},
	{modelled, "eventwave/eventwave.go", "(*Runtime).Migrate", 1},
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

// TestSleepRatchet holds every time.Sleep under internal/ to the list above.
func TestSleepRatchet(t *testing.T) {
	found, err := sleepSites("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sleeps {
		key := s.file + " " + s.fn
		switch got := found[key]; {
		case got == 0:
			t.Errorf("stale entry: %s (%s) calls time.Sleep no more; delete it from sleeps", key, s.class)
		case got != s.n:
			t.Errorf("%s calls time.Sleep %d times, listed as %d (%s)", key, got, s.n, s.class)
		}
		delete(found, key)
	}
	var unlisted []string
	for key, n := range found {
		unlisted = append(unlisted, fmt.Sprintf("%s (%d)", key, n))
	}
	sort.Strings(unlisted)
	for _, u := range unlisted {
		t.Errorf("unlisted time.Sleep in %s: wait on the event, or list it in sleeps with a class", u)
	}
}

// sleepSites counts the time.Sleep calls in every Go file under root, keyed
// by the file's path relative to root and its enclosing function.
func sleepSites(root string) (map[string]int, error) {
	found := map[string]int{}
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
				if isTimeSleep(n) {
					found[filepath.ToSlash(rel)+" "+funcName(fn)]++
				}
				return true
			})
		}
		return nil
	})
	return found, err
}

// isTimeSleep reports whether n is a call of time.Sleep.
func isTimeSleep(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "time" && sel.Sel.Name == "Sleep"
}

// funcName renders a declaration as Name, or (T).Name and (*T).Name for a
// method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return fn.Name.Name
	}
	return "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}
