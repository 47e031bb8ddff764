package lint

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// wire is the bottom of the tree, what a client process links: the clock,
// the ops plane, the ownership IDs, the values and frames and the mesh,
// bottom up. A wire package depends on no internal package but the ones
// listed before it.
var wire = []string{"clock", "metrics", "ops", "ownership", "schema", "transport"}

// layerRule names the internal packages from must not reach through any
// chain of non-test imports.
type layerRule struct {
	from string
	not  []string
}

// forbidden is the layering beyond the wire's. The client SDK submits events
// to a fleet and is not one; a node hosts any scenario it is handed and names
// none.
var forbidden = []layerRule{
	{"ingress", []string{"core", "node", "cluster", "cloudstore", "replication", "emanager", "migration", "workload"}},
	{"node", []string{"workload"}},
}

// TestLayering fails when a package reaches one it must not, and prints the
// shortest import chain to it, so the failure names the edge to cut.
func TestLayering(t *testing.T) {
	u, err := load()
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string][]string{} // internal package → its internal imports
	for _, p := range u.pkgs {
		if name, ok := strings.CutPrefix(p.path, internalPrefix); ok {
			imports[name] = nil
			for _, imp := range p.types.Imports() {
				if dep, ok := strings.CutPrefix(imp.Path(), internalPrefix); ok {
					imports[name] = append(imports[name], dep)
				}
			}
		}
	}
	var names []string
	for name := range imports {
		names = append(names, name)
	}
	sort.Strings(names)
	rules := slices.Clone(forbidden)
	for i, from := range wire {
		r := layerRule{from: from}
		for _, name := range names {
			if !slices.Contains(wire[:i+1], name) {
				r.not = append(r.not, name)
			}
		}
		rules = append(rules, r)
	}
	for _, r := range rules {
		from := r.from
		if _, ok := imports[from]; !ok {
			t.Errorf("the layering rules name %s, which is not an internal package", from)
		}
		via := reach(imports, from)
		for _, to := range r.not {
			if _, ok := imports[to]; !ok {
				t.Errorf("the layering rules name %s, which is not an internal package", to)
			}
			if _, ok := via[to]; ok {
				chain := []string{to}
				for p := to; p != from; p = via[p] {
					chain = append(chain, via[p])
				}
				slices.Reverse(chain)
				t.Errorf("%s must not depend on %s: %s", from, to, strings.Join(chain, " → "))
			}
		}
	}
}

// reach walks the import graph breadth first from from and returns, for
// every package it reaches, the package it was first reached through: the
// links of a shortest chain back to from.
func reach(imports map[string][]string, from string) map[string]string {
	via := map[string]string{}
	queue := []string{from}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, dep := range imports[p] {
			if _, seen := via[dep]; !seen && dep != from {
				via[dep] = p
				queue = append(queue, dep)
			}
		}
	}
	return via
}
