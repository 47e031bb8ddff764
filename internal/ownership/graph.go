// Package ownership implements AEON's context ownership network (§ 3 of the
// paper): a directed acyclic graph of contexts in which an edge parent→child
// means the parent "directly owns" the child. The graph supports the
// dominator computation dom(G,C) = lub(share(G,C) ∪ {C}) that the runtime
// uses as the sequencing point for events, path finding for top-down lock
// activation, and dynamic mutation (context creation, ownership edge changes,
// context removal) with acyclicity enforcement.
//
// The paper models the network as a join semi-lattice; when a dominator query
// discovers multiple minimal common ancestors (the "multiple maxima which
// share common descendants" case of § 3), the graph transparently inserts an
// unnamed virtual context owning them, exactly as the paper's footnote
// prescribes.
//
// The graph is copy-on-write: the current state lives in an immutable
// Snapshot published through an atomic pointer, so every read API is
// lock-free, while mutations serialize on a writer-only mutex and build the
// next snapshot with path-copied structural sharing (a fresh leaf — the
// TPC-C hot mutation — copies O(parents) nodes, never the whole graph).
package ownership

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ID identifies a context in the ownership network. IDs are assigned by the
// graph and are never reused.
type ID uint64

// None is the zero ID; it never names a valid context.
const None ID = 0

// String renders the ID for logs and errors.
func (id ID) String() string { return fmt.Sprintf("ctx#%d", uint64(id)) }

// VirtualClass is the class name given to unnamed contexts the graph inserts
// to restore the join semi-lattice property.
const VirtualClass = "__virtual__"

// VirtualIDBase is the first ID of the reserved virtual band: named contexts
// allocate sequentially from 1, virtual joins allocate sequentially from
// VirtualIDBase. The split keeps the two allocators independent, which is
// what lets a replicated deployment assign named-context IDs by log-sequence
// order on every node while each process still mints virtual sequencing
// points lazily (in whatever order its own dominator queries arrive) without
// ever colliding with a replicated ID. 2^32 leaves both bands effectively
// unbounded while keeping virtual IDs shallow in the radix trie.
const VirtualIDBase ID = 1 << 32

// IsVirtual reports whether id lies in the reserved virtual-join band.
func (id ID) IsVirtual() bool { return id >= VirtualIDBase }

var (
	// ErrNotFound is returned when an ID does not name a context.
	ErrNotFound = errors.New("ownership: context not found")
	// ErrCycle is returned when a mutation would create an ownership cycle.
	ErrCycle = errors.New("ownership: mutation would create a cycle")
	// ErrExists is returned when an edge or context already exists.
	ErrExists = errors.New("ownership: already exists")
	// ErrHasEdges is returned when removing a context that still owns or is
	// owned by others.
	ErrHasEdges = errors.New("ownership: context still has ownership edges")
	// ErrNoPath is returned when no downward path connects two contexts.
	ErrNoPath = errors.New("ownership: no ownership path")
)

// node is an immutable record of one context. Mutations clone the nodes they
// touch; unchanged nodes are shared between snapshots.
type node struct {
	id       ID
	class    string
	parents  []ID
	children []ID
}

// Node is a snapshot's immutable record of one context (Snapshot.Node).
// Mutations clone exactly the nodes they change and share the rest, so two
// snapshots hold the same *Node for a context if and only if its owners and
// children are unchanged between them: pointer identity is a precise change
// detector for caches keyed on a context's child set.
type Node = node

// NumChildren reports how many contexts the node directly owns; a nil node
// (context absent from the snapshot) owns none.
func (n *node) NumChildren() int {
	if n == nil {
		return 0
	}
	return len(n.children)
}

// ChildIndex returns the position of child among the node's direct children
// (fixed for the life of the node), or -1 when the node does not own it.
func (n *node) ChildIndex(child ID) int {
	if n != nil {
		for i, c := range n.children { // hand-rolled: inlines into the sub-call path
			if c == child {
				return i
			}
		}
	}
	return -1
}

func (n *node) clone() *node {
	return &node{
		id:       n.id,
		class:    n.class,
		parents:  append([]ID(nil), n.parents...),
		children: append([]ID(nil), n.children...),
	}
}

// Graph is a mutable ownership network with lock-free reads: the current
// state is an immutable Snapshot behind an atomic pointer, and all read
// methods delegate to it. Mutations take the writer-only mutex, build the
// next snapshot by path copying, and publish it atomically.
//
// The zero value is not usable; construct with NewGraph.
type Graph struct {
	// mu serializes writers: structural mutations, dominator-cache fills
	// (which re-validate snapshot currency) and virtual-join minting. No
	// read path acquires it.
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]

	// nextID allocates named contexts (sequential from 1); nextVirtual
	// allocates virtual joins from the reserved high band. See VirtualIDBase
	// for why the spaces are disjoint.
	nextID      ID
	nextVirtual ID

	// virtualJoin memoizes virtual contexts created for a given set of
	// minimal upper bounds so repeated queries reuse the same context;
	// virtualKey is its reverse index, so removing a virtual context (or one
	// of its edges) invalidates the memo entry instead of leaving it to
	// resurrect a deleted or no-longer-covering context ID.
	virtualJoin map[string]ID
	virtualKey  map[ID]string
}

// NewGraph returns an empty ownership network.
func NewGraph() *Graph {
	g := &Graph{
		nextID:      1,
		nextVirtual: VirtualIDBase,
		virtualJoin: make(map[string]ID),
		virtualKey:  make(map[ID]string),
	}
	g.snap.Store(&Snapshot{g: g, nodes: &trie{}, dom: newDomCache()})
	return g
}

// Snapshot returns the current immutable view of the network. All reads on
// it are lock-free and mutually consistent; an event should resolve one
// snapshot and issue every query of its admission sequence against it.
func (g *Graph) Snapshot() *Snapshot { return g.snap.Load() }

// publishLocked installs the next snapshot. Caller holds g.mu.
func (g *Graph) publishLocked(nodes *trie, dom *domCache) *Snapshot {
	next := &Snapshot{g: g, nodes: nodes, version: g.snap.Load().version + 1, dom: dom}
	g.snap.Store(next)
	return next
}

// Version returns a counter incremented by every mutation. Server-side
// caches use it to detect staleness.
func (g *Graph) Version() uint64 { return g.Snapshot().version }

// Len reports the number of contexts in the network.
func (g *Graph) Len() int { return g.Snapshot().Len() }

// Class reports the class of a context.
func (g *Graph) Class(id ID) (string, error) { return g.Snapshot().Class(id) }

// Contains reports whether the context exists.
func (g *Graph) Contains(id ID) bool { return g.Snapshot().Contains(id) }

// Children returns the direct children of id (shared, read-only; see
// Snapshot.Children).
func (g *Graph) Children(id ID) ([]ID, error) { return g.Snapshot().Children(id) }

// Parents returns a copy of the direct owners of id.
func (g *Graph) Parents(id ID) ([]ID, error) { return g.Snapshot().Parents(id) }

// OwnsDirectly reports whether parent directly owns child.
func (g *Graph) OwnsDirectly(parent, child ID) bool { return g.Snapshot().OwnsDirectly(parent, child) }

// Owns reports whether anc transitively owns desc (strictly).
func (g *Graph) Owns(anc, desc ID) bool { return g.Snapshot().Owns(anc, desc) }

// Desc returns the strict descendants of id (excluding id itself), sorted.
func (g *Graph) Desc(id ID) ([]ID, error) { return g.Snapshot().Desc(id) }

// Roots returns the contexts with no owners.
func (g *Graph) Roots() []ID { return g.Snapshot().Roots() }

// Path returns a downward direct-ownership path from anc to desc, inclusive
// on both ends.
func (g *Graph) Path(anc, desc ID) ([]ID, error) { return g.Snapshot().Path(anc, desc) }

// DumpDOT renders the graph in Graphviz DOT form (debugging aid).
func (g *Graph) DumpDOT() string { return g.Snapshot().DumpDOT() }

// AddContext creates a new context of the given class owned by the given
// parents and returns its ID. Creating a context with no parents makes it a
// root. A fresh context is necessarily a leaf, so this mutation can never
// introduce a cycle; the dominator cache is carried over to the next snapshot
// whenever the leaf-audit proves every cached entry still holds (see
// leafDomCacheStable), which is the steady state of leaf-creating workloads.
func (g *Graph) AddContext(class string, parents ...ID) (ID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.snap.Load()

	for _, p := range parents {
		if cur.nodes.get(p) == nil {
			return None, fmt.Errorf("parent %v: %w", p, ErrNotFound)
		}
	}
	id := g.nextID
	g.nextID++
	n := &node{id: id, class: class}
	nodes := cur.nodes
	seen := make(map[ID]bool, len(parents))
	for _, p := range parents {
		if seen[p] {
			continue
		}
		seen[p] = true
		n.parents = append(n.parents, p)
		pc := nodes.get(p).clone()
		pc.children = append(pc.children, id)
		nodes = nodes.set(p, pc)
	}
	nodes = nodes.set(id, n)

	next := &Snapshot{g: g, nodes: nodes, version: cur.version + 1}
	if leafDomCacheStable(next, cur.dom, id, n.parents) {
		next.dom = cur.dom
	} else {
		next.dom = newDomCache()
	}
	g.snap.Store(next)
	return id, nil
}

// AddEdge records that parent directly owns child. It fails with ErrCycle if
// the edge would make the network cyclic.
func (g *Graph) AddEdge(parent, child ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.snap.Load()

	pn := cur.nodes.get(parent)
	if pn == nil {
		return fmt.Errorf("parent %v: %w", parent, ErrNotFound)
	}
	cn := cur.nodes.get(child)
	if cn == nil {
		return fmt.Errorf("child %v: %w", child, ErrNotFound)
	}
	if pn.ChildIndex(child) >= 0 {
		return fmt.Errorf("edge %v→%v: %w", parent, child, ErrExists)
	}
	if parent == child || cur.reachable(child, parent) {
		return fmt.Errorf("edge %v→%v: %w", parent, child, ErrCycle)
	}
	pc := pn.clone()
	pc.children = append(pc.children, child)
	cc := cn.clone()
	cc.parents = append(cc.parents, parent)
	nodes := cur.nodes.set(parent, pc).set(child, cc)
	// Structural edge mutations can move dominators arbitrarily; the next
	// snapshot starts with a fresh cache.
	g.publishLocked(nodes, newDomCache())
	return nil
}

// RemoveEdge deletes a direct-ownership edge.
func (g *Graph) RemoveEdge(parent, child ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.snap.Load()

	pn := cur.nodes.get(parent)
	if pn == nil {
		return fmt.Errorf("parent %v: %w", parent, ErrNotFound)
	}
	cn := cur.nodes.get(child)
	if cn == nil {
		return fmt.Errorf("child %v: %w", child, ErrNotFound)
	}
	if pn.ChildIndex(child) < 0 {
		return fmt.Errorf("edge %v→%v: %w", parent, child, ErrNotFound)
	}
	pc := pn.clone()
	removeID(&pc.children, child)
	cc := cn.clone()
	removeID(&cc.parents, parent)
	nodes := cur.nodes.set(parent, pc).set(child, cc)
	// If parent is a memoized virtual join it no longer covers the maxima it
	// was minted for; drop the memo entry so a later dominator query mints a
	// correct replacement instead of reusing a non-upper-bound.
	g.dropVirtualKeyLocked(parent)
	g.publishLocked(nodes, newDomCache())
	return nil
}

// RemoveContext deletes a context that has no remaining ownership edges.
func (g *Graph) RemoveContext(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.snap.Load()

	n := cur.nodes.get(id)
	if n == nil {
		return fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	if len(n.parents) != 0 || len(n.children) != 0 {
		return fmt.Errorf("%v: %w", id, ErrHasEdges)
	}
	// The dominator cache carries over: an edgeless context can only have
	// dominated itself, and that entry is unreachable once the existence
	// check on the new snapshot fails.
	g.dropVirtualKeyLocked(id)
	g.publishLocked(cur.nodes.delete(id), cur.dom)
	return nil
}

// DetachContext removes every ownership edge touching id and then deletes the
// context. Used when destroying subtree leaves (e.g. delivered orders).
func (g *Graph) DetachContext(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.snap.Load()

	n := cur.nodes.get(id)
	if n == nil {
		return fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	nodes := cur.nodes
	for _, p := range n.parents {
		pc := nodes.get(p).clone()
		removeID(&pc.children, id)
		nodes = nodes.set(p, pc)
	}
	for _, c := range n.children {
		cc := nodes.get(c).clone()
		removeID(&cc.parents, id)
		nodes = nodes.set(c, cc)
	}
	nodes = nodes.delete(id)
	g.dropVirtualKeyLocked(id)
	g.publishLocked(nodes, newDomCache())
	return nil
}

// dropVirtualKeyLocked invalidates the virtual-join memo entry owned by id,
// if any. Caller holds g.mu.
func (g *Graph) dropVirtualKeyLocked(id ID) {
	if key, ok := g.virtualKey[id]; ok {
		delete(g.virtualJoin, key)
		delete(g.virtualKey, id)
	}
}

func removeID(s *[]ID, id ID) bool {
	for i, v := range *s {
		if v == id {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return true
		}
	}
	return false
}
