package core

import (
	"fmt"

	"aeon/internal/ownership"
)

// WithSubtreeShared runs fn while holding the given context and all its
// transitive descendants in share (readonly) mode, acquired top-down from
// the dominator per the activation protocol. It is the locking substrate of
// the § 5.3 snapshot event: fn observes a consistent cut — no event can be
// mid-flight inside the subtree while it runs.
//
// The ids passed to fn are the root followed by its descendants in
// acquisition order.
func (r *Runtime) WithSubtreeShared(root ownership.ID, fn func(ids []ownership.ID) error) error {
	if r.closed.Load() {
		return ErrClosed
	}
	ev := newEvent(r.eventSeq.Add(1), RO, root, "__snapshot__")
	defer ev.releaseAll()

	rootCtx, err := r.Context(root)
	if err != nil {
		return err
	}
	// One consistent ownership snapshot drives the whole acquisition: the
	// dominator, the activation path, and the subtree walk all observe the
	// same version of the network.
	dom, view, err := r.graph.Resolve(root)
	if err != nil {
		return fmt.Errorf("dominator of %v: %w", root, err)
	}
	domCtx := rootCtx
	if dom != root {
		if domCtx, err = r.Context(dom); err != nil {
			return err
		}
	}
	if err := r.acquireCtx(ev, domCtx); err != nil {
		return err
	}
	if _, err := r.activatePath(ev, view, dom, rootCtx, 0, false); err != nil {
		return err
	}

	// Breadth-first top-down over the subtree.
	ids := []ownership.ID{root}
	seen := map[ownership.ID]bool{root: true}
	for i := 0; i < len(ids); i++ {
		children, err := view.Children(ids[i])
		if err != nil {
			continue
		}
		for _, ch := range children {
			if seen[ch] {
				continue
			}
			seen[ch] = true
			c, err := r.Context(ch)
			if err != nil {
				// Destroyed after the snapshot was taken; its parent is held,
				// so nothing can be mid-flight below it.
				continue
			}
			if err := r.acquireCtx(ev, c); err != nil {
				return err
			}
			ids = append(ids, ch)
		}
	}
	return fn(ids)
}
