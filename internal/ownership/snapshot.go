package ownership

import (
	"fmt"
	"sort"
	"strings"
)

// Snapshot is an immutable view of the ownership network at one version.
// Every read resolves against the snapshot's persistent node map with zero
// lock acquisitions, so concurrent event admission never contends on the
// graph; mutations build and publish the next snapshot (see Graph).
//
// An event that needs several queries (dominator, activation path, children)
// should resolve one snapshot — Graph.Resolve returns one together with the
// dominator — and issue all of them against it, observing a single consistent
// version of the network instead of N racy point queries.
type Snapshot struct {
	g       *Graph
	nodes   *trie
	version uint64
	// dom memoizes dominator results. The handle may be shared with earlier
	// snapshots when the publishing mutation proved the entries carry over
	// (leaf creation audit); fills re-validate currency under the writer
	// mutex, so a shared handle never receives an entry computed against a
	// superseded snapshot.
	dom *domCache
}

// Version returns the mutation counter at which this snapshot was taken.
func (s *Snapshot) Version() uint64 { return s.version }

// Len reports the number of contexts in the snapshot.
func (s *Snapshot) Len() int { return s.nodes.len() }

// Contains reports whether the context exists in the snapshot.
func (s *Snapshot) Contains(id ID) bool { return s.nodes.get(id) != nil }

// Node returns the snapshot's record of a context, or nil.
func (s *Snapshot) Node(id ID) *Node { return s.nodes.get(id) }

// Class reports the class of a context.
func (s *Snapshot) Class(id ID) (string, error) {
	n := s.nodes.get(id)
	if n == nil {
		return "", fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	return n.class, nil
}

// Children returns the direct children of id, in the order they were added.
// The slice is the snapshot's own and is shared: it must not be written. It
// is clipped to its length, so appending to it copies. Mutations clone a
// node before they change its children, so the slice never changes.
func (s *Snapshot) Children(id ID) ([]ID, error) {
	n := s.nodes.get(id)
	if n == nil {
		return nil, fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	return n.children[:len(n.children):len(n.children)], nil
}

// Parents returns a copy of the direct owners of id.
func (s *Snapshot) Parents(id ID) ([]ID, error) {
	n := s.nodes.get(id)
	if n == nil {
		return nil, fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	out := make([]ID, len(n.parents))
	copy(out, n.parents)
	return out, nil
}

// OwnsDirectly reports whether parent directly owns child.
func (s *Snapshot) OwnsDirectly(parent, child ID) bool {
	return s.nodes.get(parent).ChildIndex(child) >= 0
}

// Owns reports whether anc transitively owns desc (strictly).
func (s *Snapshot) Owns(anc, desc ID) bool {
	if anc == desc || s.nodes.get(anc) == nil {
		return false
	}
	return s.reachable(anc, desc)
}

// Desc returns the strict descendants of id (excluding id itself), sorted.
func (s *Snapshot) Desc(id ID) ([]ID, error) {
	if s.nodes.get(id) == nil {
		return nil, fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	set := s.descSet(id)
	out := make([]ID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Roots returns the contexts with no owners, sorted.
func (s *Snapshot) Roots() []ID {
	var out []ID
	s.nodes.walk(func(n *node) {
		if len(n.parents) == 0 {
			out = append(out, n.id)
		}
	})
	return out
}

// IDs returns every context in the snapshot, sorted.
func (s *Snapshot) IDs() []ID {
	out := make([]ID, 0, s.nodes.len())
	s.nodes.walk(func(n *node) { out = append(out, n.id) })
	return out
}

// Path returns a downward direct-ownership path from anc to desc, inclusive
// on both ends. If anc == desc the path is the single context. The runtime
// activates the returned contexts top-down when escorting an event from its
// dominator to its target (Algorithm 2, activatePath); it memoizes them per
// target and reads Path only when the graph version has moved, not per
// event. The dominator→target path is memoized beside the dominator (see
// domCache) and shared between callers, so the returned slice must not be
// modified.
func (s *Snapshot) Path(anc, desc ID) ([]ID, error) {
	if s.nodes.get(anc) == nil {
		return nil, fmt.Errorf("%v: %w", anc, ErrNotFound)
	}
	if s.nodes.get(desc) == nil {
		return nil, fmt.Errorf("%v: %w", desc, ErrNotFound)
	}
	if anc == desc {
		return []ID{anc}, nil
	}
	if d, path, ok := s.dom.get(desc); ok && d == anc && path != nil {
		return path, nil
	}
	if path := bfsPath(s.nodes, anc, desc); path != nil {
		return path, nil
	}
	return nil, fmt.Errorf("%v→%v: %w", anc, desc, ErrNoPath)
}

// bfsPath is the shortest downward path anc→desc (both present in nodes),
// found by a breadth-first walk up the parent edges from desc; nil when anc
// is desc or does not own it.
func bfsPath(nodes *trie, anc, desc ID) []ID {
	if anc == desc {
		return nil
	}
	prev := map[ID]ID{desc: None}
	queue := []ID{desc}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range nodes.get(cur).parents {
			if _, seen := prev[p]; seen {
				continue
			}
			prev[p] = cur
			if p == anc {
				var path []ID
				for c := anc; c != None; c = prev[c] {
					path = append(path, c)
				}
				return path
			}
			queue = append(queue, p)
		}
	}
	return nil
}

// reachable reports whether to is reachable from from via child edges.
func (s *Snapshot) reachable(from, to ID) bool {
	if from == to {
		return true
	}
	seen := map[ID]bool{from: true}
	stack := []ID{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range s.nodes.get(cur).children {
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

// descSet computes the strict descendant set of id.
func (s *Snapshot) descSet(id ID) map[ID]bool {
	set := make(map[ID]bool)
	stack := []ID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range s.nodes.get(cur).children {
			if !set[c] {
				set[c] = true
				stack = append(stack, c)
			}
		}
	}
	return set
}

// ancSet computes the ancestors-or-self set of id.
func (s *Snapshot) ancSet(id ID) map[ID]bool {
	set := map[ID]bool{id: true}
	stack := []ID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range s.nodes.get(cur).parents {
			if !set[p] {
				set[p] = true
				stack = append(stack, p)
			}
		}
	}
	return set
}

// DumpDOT renders the snapshot in Graphviz DOT form (debugging aid).
func (s *Snapshot) DumpDOT() string {
	var b strings.Builder
	b.WriteString("digraph ownership {\n")
	s.nodes.walk(func(n *node) {
		fmt.Fprintf(&b, "  %d [label=%q];\n", uint64(n.id), fmt.Sprintf("%s#%d", n.class, uint64(n.id)))
		for _, c := range n.children {
			fmt.Fprintf(&b, "  %d -> %d;\n", uint64(n.id), uint64(c))
		}
	})
	b.WriteString("}\n")
	return b.String()
}
