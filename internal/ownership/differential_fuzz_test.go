package ownership

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file pins the graph's semantics with a differential fuzzer: random
// mutation scripts run against both the copy-on-write Graph and refModel, a
// deliberately naive single-threaded reference that recomputes everything
// from the paper's literal definitions with full scans. After every step the
// two must agree on membership, adjacency, Dom, Owns, Desc, Roots and Path.
// Virtual contexts minted by the real graph are mirrored into the reference
// as soon as they appear, so the models stay in lockstep across the
// semi-lattice repair cases too.

// refModel is the brute-force reference implementation.
type refModel struct {
	nodes map[ID]*refNode
}

type refNode struct {
	class    string
	parents  map[ID]bool
	children map[ID]bool
}

func newRefModel() *refModel {
	return &refModel{nodes: make(map[ID]*refNode)}
}

func (r *refModel) contains(id ID) bool { _, ok := r.nodes[id]; return ok }

func (r *refModel) ids() []ID {
	out := make([]ID, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refModel) add(id ID, class string, parents []ID) bool {
	for _, p := range parents {
		if !r.contains(p) {
			return false
		}
	}
	n := &refNode{class: class, parents: make(map[ID]bool), children: make(map[ID]bool)}
	r.nodes[id] = n
	for _, p := range parents {
		if n.parents[p] {
			continue
		}
		n.parents[p] = true
		r.nodes[p].children[id] = true
	}
	return true
}

func (r *refModel) addEdge(parent, child ID) bool {
	pn, pok := r.nodes[parent]
	cn, cok := r.nodes[child]
	if !pok || !cok || pn.children[child] || parent == child || r.reachableDown(child, parent) {
		return false
	}
	pn.children[child] = true
	cn.parents[parent] = true
	return true
}

func (r *refModel) removeEdge(parent, child ID) bool {
	pn, pok := r.nodes[parent]
	cn, cok := r.nodes[child]
	if !pok || !cok || !pn.children[child] {
		return false
	}
	delete(pn.children, child)
	delete(cn.parents, parent)
	return true
}

func (r *refModel) removeContext(id ID) bool {
	n, ok := r.nodes[id]
	if !ok || len(n.parents) != 0 || len(n.children) != 0 {
		return false
	}
	delete(r.nodes, id)
	return true
}

func (r *refModel) detach(id ID) bool {
	n, ok := r.nodes[id]
	if !ok {
		return false
	}
	for p := range n.parents {
		delete(r.nodes[p].children, id)
	}
	for c := range n.children {
		delete(r.nodes[c].parents, id)
	}
	delete(r.nodes, id)
	return true
}

// reachableDown reports whether to is reachable from from via child edges.
func (r *refModel) reachableDown(from, to ID) bool {
	if from == to {
		return true
	}
	seen := map[ID]bool{from: true}
	stack := []ID{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for c := range r.nodes[cur].children {
			if c == to {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

func (r *refModel) descSet(id ID) map[ID]bool {
	set := make(map[ID]bool)
	for other := range r.nodes {
		if other != id && r.reachableDown(id, other) {
			set[other] = true
		}
	}
	return set
}

func (r *refModel) ancSelfSet(id ID) map[ID]bool {
	set := map[ID]bool{id: true}
	for other := range r.nodes {
		if other != id && r.reachableDown(other, id) {
			set[other] = true
		}
	}
	return set
}

// shareMembers evaluates share(G,C) ∪ {C} from the paper's literal
// definition with full scans over all contexts.
func (r *refModel) shareMembers(id ID) []ID {
	descC := r.descSet(id)
	members := map[ID]bool{id: true}
	for other, on := range r.nodes {
		if other == id {
			continue
		}
		inFirst := false
		for ch := range on.children {
			if descC[ch] {
				inFirst = true
				break
			}
		}
		inSecond := false
		if !inFirst && !descC[other] && !r.reachableDown(other, id) {
			for d := range r.descSet(other) {
				if descC[d] {
					inSecond = true
					break
				}
			}
		}
		if inFirst || inSecond {
			members[other] = true
		}
	}
	out := make([]ID, 0, len(members))
	for m := range members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dom computes lub(share ∪ {C}); ok=false when no unique lub exists.
func (r *refModel) dom(id ID) (ID, bool) {
	members := r.shareMembers(id)
	common := r.ancSelfSet(members[0])
	for _, m := range members[1:] {
		next := r.ancSelfSet(m)
		for c := range common {
			if !next[c] {
				delete(common, c)
			}
		}
	}
	if len(common) == 0 {
		return None, false
	}
	var minima []ID
	for c := range common {
		hasLower := false
		for o := range common {
			if o != c && r.reachableDown(c, o) {
				hasLower = true
				break
			}
		}
		if !hasLower {
			minima = append(minima, c)
		}
	}
	if len(minima) == 1 {
		return minima[0], true
	}
	return None, false
}

// script interpreter ------------------------------------------------------

type scriptReader struct {
	buf []byte
	pos int
}

func (s *scriptReader) next() (byte, bool) {
	if s.pos >= len(s.buf) {
		return 0, false
	}
	b := s.buf[s.pos]
	s.pos++
	return b, true
}

// pick selects a live context deterministically from one script byte.
func pick(ids []ID, b byte) (ID, bool) {
	if len(ids) == 0 {
		return None, false
	}
	return ids[int(b)%len(ids)], true
}

const maxScriptOps = 48

// runDifferential interprets one fuzz script against both models, verifying
// full agreement after every mutation.
func runDifferential(t *testing.T, script []byte) {
	t.Helper()
	g := NewGraph()
	ref := newRefModel()

	// Both start from one root so early ops have something to attach to.
	root, err := g.AddContext("root")
	if err != nil {
		t.Fatal(err)
	}
	ref.add(root, "root", nil)

	rd := &scriptReader{buf: script}
	for op := 0; op < maxScriptOps; op++ {
		code, ok := rd.next()
		if !ok {
			break
		}
		ids := ref.ids()
		switch code % 8 {
		case 0, 1: // single-owner leaf
			pb, ok := rd.next()
			if !ok {
				break
			}
			p, ok := pick(ids, pb)
			if !ok {
				continue
			}
			id, err := g.AddContext("n", p)
			if err != nil {
				t.Fatalf("AddContext(%v): %v", p, err)
			}
			ref.add(id, "n", []ID{p})
		case 2: // shared leaf (the TPC-C hot mutation)
			pb1, ok1 := rd.next()
			pb2, ok2 := rd.next()
			if !ok1 || !ok2 {
				break
			}
			p1, _ := pick(ids, pb1)
			p2, _ := pick(ids, pb2)
			id, err := g.AddContext("shared", p1, p2)
			if err != nil {
				t.Fatalf("AddContext(%v,%v): %v", p1, p2, err)
			}
			ref.add(id, "shared", []ID{p1, p2})
		case 3: // add edge
			pb1, ok1 := rd.next()
			pb2, ok2 := rd.next()
			if !ok1 || !ok2 {
				break
			}
			p, _ := pick(ids, pb1)
			c, _ := pick(ids, pb2)
			realOK := g.AddEdge(p, c) == nil
			refOK := ref.addEdge(p, c)
			if realOK != refOK {
				t.Fatalf("AddEdge(%v,%v): real=%v ref=%v", p, c, realOK, refOK)
			}
		case 4: // remove edge
			pb1, ok1 := rd.next()
			pb2, ok2 := rd.next()
			if !ok1 || !ok2 {
				break
			}
			p, _ := pick(ids, pb1)
			c, _ := pick(ids, pb2)
			realOK := g.RemoveEdge(p, c) == nil
			refOK := ref.removeEdge(p, c)
			if realOK != refOK {
				t.Fatalf("RemoveEdge(%v,%v): real=%v ref=%v", p, c, realOK, refOK)
			}
		case 5: // detach
			pb, ok := rd.next()
			if !ok {
				break
			}
			id, ok := pick(ids, pb)
			if !ok || id == root {
				continue
			}
			realOK := g.DetachContext(id) == nil
			refOK := ref.detach(id)
			if realOK != refOK {
				t.Fatalf("DetachContext(%v): real=%v ref=%v", id, realOK, refOK)
			}
		case 6: // remove (edgeless only)
			pb, ok := rd.next()
			if !ok {
				break
			}
			id, ok := pick(ids, pb)
			if !ok || id == root {
				continue
			}
			realOK := g.RemoveContext(id) == nil
			refOK := ref.removeContext(id)
			if realOK != refOK {
				t.Fatalf("RemoveContext(%v): real=%v ref=%v", id, realOK, refOK)
			}
		case 7: // mid-script dominator query (may mint a virtual)
			pb, ok := rd.next()
			if !ok {
				break
			}
			id, ok := pick(ids, pb)
			if !ok {
				continue
			}
			checkDomAgree(t, g, ref, id)
		}
		checkAgree(t, g, ref)
	}
	// Final sweep: dominators of every context.
	for _, id := range ref.ids() {
		checkDomAgree(t, g, ref, id)
	}
	checkAgree(t, g, ref)
}

// maxima returns the maximal elements of members (those not strictly owned
// by another member).
func (r *refModel) maxima(members []ID) []ID {
	var out []ID
	for _, m := range members {
		owned := false
		for _, o := range members {
			if o != m && r.reachableDown(o, m) {
				owned = true
				break
			}
		}
		if !owned {
			out = append(out, m)
		}
	}
	return out
}

// checkDomAgree compares one dominator query against the literal definition,
// mirroring freshly minted virtual contexts into the reference.
//
// The contract: when share ∪ {C} has a unique lub, Dom returns exactly it;
// when it does not, Dom returns a virtual context directly owning every
// maximal member (the memoized semi-lattice repair). In both cases the
// result must be an upper bound of every share member.
func checkDomAgree(t *testing.T, g *Graph, ref *refModel, id ID) {
	t.Helper()
	d, err := g.Dom(id)
	if err != nil {
		t.Fatalf("Dom(%v): %v\n%s", id, err, g.DumpDOT())
	}
	if !ref.contains(d) {
		// Must be a virtual join minted by this query: mirror it.
		class, cerr := g.Class(d)
		if cerr != nil || class != VirtualClass {
			t.Fatalf("Dom(%v) = %v: unknown non-virtual context (class %q, %v)", id, d, class, cerr)
		}
		children, _ := g.Children(d)
		ref.add(d, VirtualClass, nil)
		for _, c := range children {
			if !ref.addEdge(d, c) {
				t.Fatalf("cannot mirror virtual edge %v→%v into reference", d, c)
			}
		}
	}
	members := ref.shareMembers(id)
	for _, m := range members {
		if d != m && !ref.reachableDown(d, m) {
			t.Fatalf("Dom(%v) = %v does not own share member %v\n%s", id, d, m, g.DumpDOT())
		}
	}
	if want, unique := ref.dom(id); unique {
		if d != want {
			t.Fatalf("Dom(%v) = %v; reference lub is %v\n%s", id, d, want, g.DumpDOT())
		}
		return
	}
	// Ambiguous lub: the answer must be a virtual join covering the maxima
	// directly (a fresh mint or a still-valid memo entry).
	if class, _ := g.Class(d); class != VirtualClass {
		t.Fatalf("Dom(%v) = %v (class %q); reference has no unique lub, want a virtual join\n%s",
			id, d, class, g.DumpDOT())
	}
	for _, m := range ref.maxima(members) {
		if !ref.nodes[d].children[m] {
			t.Fatalf("Dom(%v) = virtual %v does not directly own maximum %v\n%s", id, d, m, g.DumpDOT())
		}
	}
}

// checkPathMemo verifies every activation path memoised beside a dominator
// against a fresh breadth-first walk of the same snapshot — after every
// mutation, so a cache carried across one (leaf creation, RemoveContext) is
// caught the moment a carried path stops being the path Path would compute.
func checkPathMemo(t *testing.T, s *Snapshot) {
	t.Helper()
	s.dom.t.Load().each(func(id, dom ID, memo []ID) {
		if !s.Contains(id) {
			return // unreachable self-entry left behind by RemoveContext
		}
		if want := bfsPath(s.nodes, dom, id); !slices.Equal(memo, want) {
			t.Fatalf("memoised path %v→%v = %v; breadth-first walk finds %v\n%s", dom, id, memo, want, s.DumpDOT())
		}
		if got, err := s.Path(dom, id); err != nil || (dom != id && !slices.Equal(got, memo)) {
			t.Fatalf("Path(%v,%v) = %v, %v; memo %v", dom, id, got, err, memo)
		}
	})
}

// checkAgree compares the full observable state of both models.
func checkAgree(t *testing.T, g *Graph, ref *refModel) {
	t.Helper()
	s := g.Snapshot()
	checkPathMemo(t, s)
	realIDs := s.IDs()
	refIDs := ref.ids()
	if len(realIDs) != len(refIDs) {
		t.Fatalf("membership: real %v vs ref %v\n%s", realIDs, refIDs, s.DumpDOT())
	}
	for i := range realIDs {
		if realIDs[i] != refIDs[i] {
			t.Fatalf("membership: real %v vs ref %v", realIDs, refIDs)
		}
	}
	if s.Len() != len(refIDs) {
		t.Fatalf("Len = %d; ref has %d", s.Len(), len(refIDs))
	}

	var refRoots []ID
	for _, id := range refIDs {
		n := ref.nodes[id]

		class, err := s.Class(id)
		if err != nil || class != n.class {
			t.Fatalf("Class(%v) = %q, %v; ref %q", id, class, err, n.class)
		}
		children, err := s.Children(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDSet(children, n.children) {
			t.Fatalf("Children(%v) = %v; ref %v", id, children, keys(n.children))
		}
		parents, err := s.Parents(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDSet(parents, n.parents) {
			t.Fatalf("Parents(%v) = %v; ref %v", id, parents, keys(n.parents))
		}
		desc, err := s.Desc(id)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDSet(desc, ref.descSet(id)) {
			t.Fatalf("Desc(%v) = %v; ref %v", id, desc, keys(ref.descSet(id)))
		}
		if len(n.parents) == 0 {
			refRoots = append(refRoots, id)
		}
	}
	roots := s.Roots()
	if len(roots) != len(refRoots) {
		t.Fatalf("Roots = %v; ref %v", roots, refRoots)
	}
	for i := range roots {
		if roots[i] != refRoots[i] {
			t.Fatalf("Roots = %v; ref %v", roots, refRoots)
		}
	}

	// Owns and Path over sampled pairs.
	n := len(refIDs)
	for i, a := range refIDs {
		b := refIDs[(i*7+3)%n]
		reach := a != b && ref.reachableDown(a, b)
		if got := s.Owns(a, b); got != reach {
			t.Fatalf("Owns(%v,%v) = %v; ref %v", a, b, got, reach)
		}
		path, err := s.Path(a, b)
		if reachable := a == b || reach; (err == nil) != reachable {
			t.Fatalf("Path(%v,%v) err=%v; ref reachable=%v", a, b, err, reachable)
		}
		if err == nil {
			if path[0] != a || path[len(path)-1] != b {
				t.Fatalf("Path(%v,%v) endpoints: %v", a, b, path)
			}
			for j := 0; j < len(path)-1; j++ {
				if !ref.nodes[path[j]].children[path[j+1]] {
					t.Fatalf("Path(%v,%v) step %v→%v is not an edge", a, b, path[j], path[j+1])
				}
			}
		}
	}
}

func sameIDSet(got []ID, want map[ID]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, id := range got {
		if !want[id] {
			return false
		}
	}
	return true
}

func keys(m map[ID]bool) []ID {
	out := make([]ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FuzzGraphDifferential is the go test -fuzz entry point; the seed corpus
// covers tree growth, shared leaves, edge churn, detaches and the
// virtual-join regression shape.
func FuzzGraphDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 2, 1, 2}) // small tree + shared leaf
	f.Add([]byte{2, 0, 0, 7, 1, 4, 3, 1, 4, 3, 2, 7, 1})
	f.Add([]byte{0, 0, 2, 1, 1, 7, 2, 5, 3, 7, 0, 6, 3})
	f.Add([]byte{2, 0, 0, 2, 1, 1, 2, 2, 2, 7, 3, 7, 4, 5, 5, 5, 6})
	f.Add([]byte{1, 0, 1, 1, 1, 2, 3, 0, 3, 4, 0, 3, 7, 2, 7, 3, 7, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		runDifferential(t, script)
	})
}

// TestGraphDifferentialSeededScripts runs the differential check over a
// deterministic pseudorandom corpus on every plain `go test`, so the
// equivalence is exercised in CI even without -fuzz.
func TestGraphDifferentialSeededScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 250; trial++ {
		script := make([]byte, rng.Intn(96))
		rng.Read(script)
		runDifferential(t, script)
	}
}
