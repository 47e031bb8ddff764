package ownership

import (
	"fmt"
	"sort"
	"strings"
)

// Dom computes the dominator of context id per § 3 of the paper:
//
//	share(G,C) = {C' | desc(G,C) ∩ children(G,C') ≠ ∅} ∪
//	             {C' | desc(G,C') ∩ desc(G,C) ≠ ∅ ∧ C' ∉ desc(G,C) ∧ C ∉ desc(G,C')}
//	dom(G,C)   = lub(G, share(G,C) ∪ {C})
//
// desc is the *strict* descendant relation (this reading makes the paper's
// worked examples hold: dom(Sword) = Sword, dom(Player1) = Kings Room).
//
// The first set contains every direct owner of a descendant of C (including
// owners comparable to C — e.g. an ancestor that reaches into C's subtree
// directly); the second contains every context incomparable to C whose
// descendants overlap C's. Both are computed with a single walk over
// desc(G,C) plus upward walks from those descendants.
//
// When the lub does not exist because the network has multiple minimal common
// ancestors (the semi-lattice has multiple maxima sharing descendants), Dom
// transparently inserts an unnamed virtual context owning those maxima and
// returns it, per the paper's footnote. The same virtual context is reused
// for identical queries while it still covers them.
func (g *Graph) Dom(id ID) (ID, error) {
	d, _, err := g.Snapshot().resolveDom(id)
	return d, err
}

// Resolve returns the dominator of target together with a snapshot that
// contains both target and dominator, so the caller can run the rest of its
// admission sequence (Path, Children) against one consistent version of the
// network. When the query mints a virtual join, the returned snapshot is the
// newly published one.
func (g *Graph) Resolve(target ID) (ID, *Snapshot, error) {
	return g.Snapshot().resolveDom(target)
}

// Dom computes the dominator of id against this snapshot. Cache hits and
// pure recomputation are lock-free; only a cache fill or a virtual-join mint
// touches the graph's writer mutex.
//
// When the query has to mint a virtual join, the returned ID exists only in
// snapshots at or after the mint, not necessarily in the receiver. Callers
// that go on to query the dominator (Path, Contains, ...) should use
// Graph.Resolve, which returns the snapshot the dominator is valid in.
func (s *Snapshot) Dom(id ID) (ID, error) {
	d, _, err := s.resolveDom(id)
	return d, err
}

// resolveDom returns the dominator and the snapshot it is valid in (s
// itself, unless a virtual join had to be minted into a newer snapshot).
func (s *Snapshot) resolveDom(id ID) (ID, *Snapshot, error) {
	if s.nodes.get(id) == nil {
		return None, s, fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	// Lock-free fast path: the cache is valid for every snapshot sharing it.
	if d, _, ok := s.dom.get(id); ok {
		return d, s, nil
	}
	members := s.shareMembers(id)
	if len(members) == 1 {
		s.g.fillDomCache(s, id, members[0])
		return members[0], s, nil
	}
	if lub, ok := s.lub(members); ok {
		s.g.fillDomCache(s, id, lub)
		return lub, s, nil
	}
	// No unique least upper bound: restore the lattice with a virtual
	// context owning the maximal members.
	return s.g.mintVirtualJoin(s, id)
}

// fillDomCache opportunistically memoizes a dominator computed lock-free
// against s, with the activation path below it. The store happens under the
// writer mutex and only if s is still the current snapshot: a value computed
// against a superseded structure must not leak into a cache handle newer
// snapshots share.
func (g *Graph) fillDomCache(s *Snapshot, id, d ID) {
	if g.snap.Load() != s {
		// Already superseded: the store below would be discarded anyway, so
		// don't contend with writers. The authoritative re-check still runs
		// under the mutex.
		return
	}
	path := bfsPath(s.nodes, d, id)
	g.mu.Lock()
	if g.snap.Load() == s {
		s.dom.put(id, d, path)
	}
	g.mu.Unlock()
}

// mintVirtualJoin creates (or reuses) the unnamed context owning the maximal
// share members of id, publishing a new snapshot that contains it. If the
// caller's snapshot is no longer current the dominator is re-derived against
// the current one, matching the previous single-lock behavior of answering
// against the latest structure.
func (g *Graph) mintVirtualJoin(s *Snapshot, id ID) (ID, *Snapshot, error) {
	g.mu.Lock()
	defer g.mu.Unlock()

	cur := g.snap.Load()
	if cur != s {
		if cur.nodes.get(id) == nil {
			return None, cur, fmt.Errorf("%v: %w", id, ErrNotFound)
		}
		if d, _, ok := cur.dom.get(id); ok {
			return d, cur, nil
		}
	}
	members := cur.shareMembers(id)
	if len(members) == 1 {
		cur.dom.put(id, members[0], bfsPath(cur.nodes, members[0], id))
		return members[0], cur, nil
	}
	if lub, ok := cur.lub(members); ok {
		cur.dom.put(id, lub, bfsPath(cur.nodes, lub, id))
		return lub, cur, nil
	}

	// Use the maxima of the member set: owning them transitively owns all.
	maxima := cur.maxima(members)
	key := joinKey(maxima)
	if v, ok := g.virtualJoin[key]; ok {
		// The memo entry is only reusable while the virtual context is both
		// alive and still covering every maximum; edge removals and context
		// removals drop entries eagerly (dropVirtualKeyLocked), and this
		// check keeps a stale entry from ever resurfacing a deleted or
		// non-covering context ID.
		if cur.coversAll(v, maxima) {
			cur.dom.put(id, v, bfsPath(cur.nodes, v, id))
			return v, cur, nil
		}
		g.dropVirtualKeyLocked(v)
	}

	vid := g.nextVirtual
	g.nextVirtual++
	vn := &node{id: vid, class: VirtualClass}
	nodes := cur.nodes
	for _, m := range maxima {
		mc := nodes.get(m).clone()
		mc.parents = append(mc.parents, vid)
		vn.children = append(vn.children, m)
		nodes = nodes.set(m, mc)
	}
	nodes = nodes.set(vid, vn)
	// Minting is a structural edge mutation like any other: the new virtual
	// becomes a second upper bound that can make a previously unique lub
	// ambiguous, and as a fresh direct owner of its maxima it can even join
	// other contexts' share sets — so cached dominators do NOT carry over.
	// (The differential fuzzer caught exactly this against the pre-COW
	// implementation, which shared the cache across mints.)
	dom := newDomCache()
	dom.put(id, vid, bfsPath(nodes, vid, id))
	next := g.publishLocked(nodes, dom)
	g.virtualJoin[key] = vid
	g.virtualKey[vid] = key
	return vid, next, nil
}

// coversAll reports whether v is alive and directly owns every given context.
func (s *Snapshot) coversAll(v ID, ids []ID) bool {
	n := s.nodes.get(v)
	if n == nil {
		return false
	}
	for _, m := range ids {
		if n.ChildIndex(m) < 0 {
			return false
		}
	}
	return true
}

// shareMembers returns share(G,id) ∪ {id}.
func (s *Snapshot) shareMembers(id ID) []ID {
	descC := s.descSet(id)
	ancSelfC := s.ancSet(id)

	members := map[ID]bool{id: true}
	// Set 1: direct owners of any descendant of C.
	for d := range descC {
		for _, p := range s.nodes.get(d).parents {
			members[p] = true
		}
	}
	// Set 2: ancestors of descendants of C that are incomparable to C.
	// Upward walk from every descendant; membership filters exclude C's own
	// subtree (descC) and C's ancestors-or-self (ancSelfC).
	seen := make(map[ID]bool, len(descC))
	stack := make([]ID, 0, len(descC))
	for d := range descC {
		stack = append(stack, d)
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range s.nodes.get(cur).parents {
			if seen[p] {
				continue
			}
			seen[p] = true
			stack = append(stack, p)
			if !descC[p] && !ancSelfC[p] {
				members[p] = true
			}
		}
	}

	out := make([]ID, 0, len(members))
	for m := range members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lub computes the unique least upper bound of members under the ownership
// order (X ≥ Y iff X transitively owns Y or X == Y). It returns ok=false
// when no unique lub exists.
func (s *Snapshot) lub(members []ID) (ID, bool) {
	if len(members) == 0 {
		return None, false
	}
	// Common ancestors-or-self of every member.
	common := s.ancSet(members[0])
	for _, m := range members[1:] {
		next := s.ancSet(m)
		for c := range common {
			if !next[c] {
				delete(common, c)
			}
		}
		if len(common) == 0 {
			return None, false
		}
	}
	minima := s.minima(common)
	if len(minima) == 1 {
		return minima[0], true
	}
	return None, false
}

// minima returns the minimal elements of set under the ownership order
// (those with no strict descendant inside the set).
func (s *Snapshot) minima(set map[ID]bool) []ID {
	var minima []ID
	for c := range set {
		hasLower := false
		stack := append([]ID(nil), s.nodes.get(c).children...)
		seen := make(map[ID]bool)
		for len(stack) > 0 && !hasLower {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			if set[cur] {
				hasLower = true
				break
			}
			stack = append(stack, s.nodes.get(cur).children...)
		}
		if !hasLower {
			minima = append(minima, c)
		}
	}
	sort.Slice(minima, func(i, j int) bool { return minima[i] < minima[j] })
	return minima
}

// maxima returns the maximal elements of members under the ownership order
// (those not strictly owned by another member).
func (s *Snapshot) maxima(members []ID) []ID {
	memberSet := make(map[ID]bool, len(members))
	for _, m := range members {
		memberSet[m] = true
	}
	var maxima []ID
	for _, m := range members {
		hasUpper := false
		stack := append([]ID(nil), s.nodes.get(m).parents...)
		seen := make(map[ID]bool)
		for len(stack) > 0 && !hasUpper {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			if memberSet[cur] {
				hasUpper = true
				break
			}
			stack = append(stack, s.nodes.get(cur).parents...)
		}
		if !hasUpper {
			maxima = append(maxima, m)
		}
	}
	sort.Slice(maxima, func(i, j int) bool { return maxima[i] < maxima[j] })
	return maxima
}

// leafDomCacheStable audits whether the dominator cache can be carried to
// the snapshot that adds a fresh leaf under the given parents.
//
// A single-owner leaf introduces no new sharing: the only new share member
// any ancestor A gains is L's sole parent P, which lies on the A→L path and
// is therefore already ≤ A; no lub can move, so every cache entry stays.
//
// A multi-owner leaf L enlarges share(A) for every ancestor A of L: set 1
// gains L's parents, and set 2 gains every ancestor of those parents that is
// incomparable to A. A cached dom(A) stays valid iff it already covers every
// such potential new member. The check below verifies that condition for
// every cached ancestor entry; if any entry would move — or a parent's own
// dominator is unknown — the whole cache is dropped (dominators of contexts
// far from L that share with the parents' subtrees could move too, and
// tracking them precisely is not worth the complexity). In the steady state
// of leaf-creating workloads (TPC-C order creation: dom(District) =
// dom(Customer) = District and Warehouse comparable to both) every check
// passes and no invalidation happens.
//
// next is the snapshot being built (with the leaf already wired in); cache
// is the previous snapshot's handle. Caller holds the writer mutex.
func leafDomCacheStable(next *Snapshot, cache *domCache, leaf ID, parents []ID) bool {
	if len(parents) <= 1 {
		return true
	}
	for _, p := range parents {
		if _, _, ok := cache.get(p); !ok {
			return false
		}
	}
	// Potential new share members for any ancestor of L: the parents and all
	// their ancestors. Upward chains are short in practice.
	newMembers := make(map[ID]bool)
	parentSet := make(map[ID]bool, len(parents))
	for _, p := range parents {
		parentSet[p] = true
		for a := range next.ancSet(p) {
			newMembers[a] = true
		}
	}
	ancSelfLeaf := next.ancSet(leaf)
	for a := range ancSelfLeaf {
		if a == leaf {
			continue
		}
		cached, _, ok := cache.get(a)
		if !ok {
			continue
		}
		ancSelfA := next.ancSet(a)
		ancSelfDom := next.ancSet(cached)
		for m := range newMembers {
			if m == a {
				continue
			}
			if !parentSet[m] {
				// Non-parent ancestors join share(A) only when incomparable
				// to A (set 2); comparable ones are not members.
				if ancSelfA[m] || next.ancSet(m)[a] {
					continue
				}
			}
			// Member m must already be covered by the cached dominator:
			// cached ≥ m, i.e. cached ∈ ancestors-or-self of m.
			if m != cached && !next.inAncSelf(m, cached, ancSelfDom) {
				return false
			}
		}
	}
	return true
}

// inAncSelf reports whether dom is an ancestor-or-self of m. ancSelfDom (the
// ancestors of dom) is passed in to short-circuit the common case where m is
// below dom on a chain through dom.
func (s *Snapshot) inAncSelf(m, dom ID, ancSelfDom map[ID]bool) bool {
	if ancSelfDom[m] {
		// m is an ancestor of dom; dom cannot cover it (m != dom checked).
		return false
	}
	return s.ancSet(m)[dom]
}

func joinKey(ids []ID) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", uint64(id))
	}
	return b.String()
}
