package core

import "aeon/internal/ownership"

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
	// Events reach root by the same admission, and the subtree walk reads
	// the network as it stands once root is held.
	a, err := r.admission(rootCtx)
	if err != nil {
		return err
	}
	if err := r.acquireCtx(ev, a.dom); err != nil {
		return err
	}
	if _, err := r.activatePath(ev, a.path, 0, false); err != nil {
		return err
	}
	view := r.graph.Snapshot()

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
