package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"

	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// Context is the runtime representation of one context instance: its class,
// mutable state, activation lock, and execution bookkeeping.
type Context struct {
	id    ownership.ID
	class *schema.Class

	lock *eventLock
	// runMu serializes method executions on this context, providing the
	// paper's coarse-grained (context-access level) interleaving for
	// same-event asynchronous calls that race on a common child. Readonly
	// executions skip it.
	runMu sync.Mutex

	// stateMu guards state replacement and reads from outside events (setup
	// code, migration); handlers read state under the activation they hold,
	// without it (callEnv.State).
	stateMu sync.Mutex
	state   any

	// kids resolves the callees of this context's sub-calls (ownedChild);
	// built on first use, replaced when the context's child set changes.
	kids atomic.Pointer[childTable]

	// placed caches the context's host, tagged with the directory generation
	// it was read at (Directory.routeOf) — inside the context's forwarding
	// window too: the window changes what a remote sender pays, not the host.
	placed atomic.Uint64
}

// childTable maps a caller's direct children to their runtime entries. It is
// valid for one immutable ownership node: entry i belongs to the node's i-th
// child, so a hit proves existence and § 3 direct ownership and yields the
// *Context in one probe. Entries fill on first use and never change — a
// child's registry entry lives until the child is destroyed, which detaches
// it and thereby replaces the owner's node.
type childTable struct {
	node *ownership.Node
	// version is the last graph version at which node was still the caller's
	// node; a newer graph costs one node lookup to revalidate.
	version atomic.Uint64
	ctxs    []atomic.Pointer[Context]
}

// ownedChild resolves a callee through the caller's child table. Unknown
// contexts fail with ErrUnknownContext, known ones the caller does not
// directly own with ErrNotOwned.
func (r *Runtime) ownedChild(parent *Context, child ownership.ID) (*Context, error) {
	view := r.graph.Snapshot()
	t := parent.kids.Load()
	if t == nil || t.version.Load() != view.Version() {
		// COW: the caller's node pointer is unchanged iff its child set is.
		if node := view.Node(parent.id); t == nil || t.node != node {
			t = &childTable{node: node, ctxs: make([]atomic.Pointer[Context], node.NumChildren())}
			parent.kids.Store(t)
		}
		t.version.Store(view.Version())
	}
	i := t.node.ChildIndex(child)
	if i >= 0 {
		if cc := t.ctxs[i].Load(); cc != nil {
			return cc, nil
		}
	}
	cc, err := r.Context(child)
	if err != nil {
		return nil, err
	}
	if i < 0 {
		// § 3: access to a context is only granted to the contexts that
		// directly own it.
		return nil, fmt.Errorf("%v → %v: %w", parent.id, child, ErrNotOwned)
	}
	t.ctxs[i].Store(cc)
	return cc, nil
}

// ID returns the context's ID.
func (c *Context) ID() ownership.ID { return c.id }

// Class returns the context's contextclass.
func (c *Context) Class() *schema.Class { return c.class }

// State returns the context's state object. Callers must hold the context's
// activation (handlers do) or otherwise own the context (setup code,
// migration with the context exclusively activated).
func (c *Context) State() any {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.state
}

// SetState replaces the context's state (migration state transfer).
func (c *Context) SetState(s any) {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	c.state = s
}

// Sized lets application state declare its serialized size so migration
// transfer costs are charged realistically (e.g. the paper's 1 MB Room
// contexts) without always paying real serialization.
type Sized interface {
	StateBytes() int
}

// StateBytes estimates the serialized size of the context state for
// migration bandwidth accounting: a Sized state answers directly, otherwise
// gob encoding is measured, with a fixed fallback for unencodable state.
func (c *Context) StateBytes() int {
	const fallback = 1024
	st := c.State()
	if st == nil {
		return 64
	}
	if s, ok := st.(Sized); ok {
		return s.StateBytes()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fallback
	}
	return buf.Len()
}
