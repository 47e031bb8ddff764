package core

import (
	"fmt"
	"slices"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// callEnv implements schema.Call: the environment a method body executes in.
// It is a frame owned by the event (event.pushFrame) and recycled when the
// handler returns — see the no-retain contract on schema.Call.
type callEnv struct {
	rt     *Runtime
	ev     *event
	ctx    *Context
	method *schema.Method
	// host is the server ctx was routed to when it was activated: the origin
	// of the EXEC hops this frame's calls send, and where its Work burns.
	host   cluster.ServerID
	inline bool // one of ev.frames
}

var _ schema.Call = (*callEnv)(nil)

// Self implements schema.Call.
func (c *callEnv) Self() ownership.ID { return c.ctx.id }

// Class implements schema.Call.
func (c *callEnv) Class() string { return c.ctx.class.Name() }

// State implements schema.Call. The frame runs under the context's
// activation, which orders it after any SetState (setup, or a migration
// holding the context exclusively), so it reads the state directly.
func (c *callEnv) State() any { return c.ctx.state }

// EventID implements schema.Call.
func (c *callEnv) EventID() uint64 { return c.ev.id }

// ReadOnly implements schema.Call.
func (c *callEnv) ReadOnly() bool { return c.ev.mode == RO }

// resolveCallee is the one callee resolution behind Sync, Async and Crab:
// crab check, the caller's child table (existence, § 3 direct ownership and
// the runtime entry in one probe), the precomputed may-access set, the
// method table. It neither routes nor activates.
func (c *callEnv) resolveCallee(child ownership.ID, method string) (*Context, *schema.Method, error) {
	if c.ev.crabbedCtx(c.ctx.id) {
		return nil, nil, fmt.Errorf("call %s from %v: %w", method, c.ctx.id, ErrCrabbed)
	}
	cc, err := c.rt.ownedChild(c.ctx, child)
	if err != nil {
		return nil, nil, err
	}
	// Dynamic enforcement of the statically declared may-access sets.
	if !c.method.MayAccessClass(cc.class) {
		return nil, nil, fmt.Errorf("%s.%s → %s: %w",
			c.ctx.class.Name(), c.method.Name, cc.class.Name(), ErrAccessDenied)
	}
	m := cc.class.Method(method)
	if m == nil {
		return nil, nil, fmt.Errorf("%s.%s: %w", cc.class.Name(), method, ErrUnknownMethod)
	}
	return cc, m, nil
}

// activateCallee resolves a child call, charges the EXEC message from this
// frame's host to the callee's, and activates the callee for the event.
func (c *callEnv) activateCallee(child ownership.ID, method string) (*Context, *schema.Method, cluster.ServerID, error) {
	cc, m, err := c.resolveCallee(child, method)
	if err != nil {
		return nil, nil, 0, err
	}
	host, err := c.rt.routeHop(c.host, cc, true)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := c.rt.acquireCtx(c.ev, cc); err != nil {
		return nil, nil, 0, err
	}
	return cc, m, host, nil
}

// Sync implements schema.Call.
func (c *callEnv) Sync(child ownership.ID, method string, args ...schema.Value) (schema.Value, error) {
	cc, m, host, err := c.activateCallee(child, method)
	if err != nil {
		return schema.Value{}, err
	}
	return c.rt.invoke(c.ev, cc, m, host, args)
}

// asyncResult implements schema.AsyncResult.
type asyncResult struct {
	done chan struct{}
	res  schema.Value
	err  error
}

// Wait implements schema.AsyncResult.
func (a *asyncResult) Wait() (schema.Value, error) {
	<-a.done
	return a.res, a.err
}

// Async implements schema.Call. Activation happens synchronously in queue
// order (so two async calls to the same child from different branches keep
// the event's ordering guarantees); only the execution is concurrent.
func (c *callEnv) Async(child ownership.ID, method string, args ...schema.Value) schema.AsyncResult {
	a := &asyncResult{done: make(chan struct{})}
	cc, m, host, err := c.activateCallee(child, method)
	if err != nil {
		a.err = err
		close(a.done)
		return a
	}
	rt, ev := c.rt, c.ev // the goroutine may outlive this frame
	ev.fork()
	ev.asyncWG.Add(1)
	go func() {
		defer ev.asyncWG.Done()
		defer close(a.done)
		a.res, a.err = rt.invoke(ev, cc, m, host, args)
	}()
	return a
}

// Crab implements schema.Call: asynchronous tail call into a child followed
// by early release of the current context when its handler returns.
//
// The child's activation-queue position is taken synchronously — while the
// current context is still held, so the ordering the current context
// established is preserved at the child — but admission is awaited in the
// asynchronous tail, keeping the EXEC hop and any queue wait out of the
// current context's hold time (§ 6.1.2: the Warehouse is released while the
// District part of the transaction is still being delivered).
func (c *callEnv) Crab(child ownership.ID, method string, args ...schema.Value) error {
	cc, m, err := c.resolveCallee(child, method)
	if err != nil {
		return err
	}
	rt, ev, from := c.rt, c.ev, c.host // the tail outlives this frame
	ev.fork()
	// Reserve the child's queue slot now, under the current hold.
	w, admitted := cc.lock.enqueue(ev.id, ev.mode)
	if (w != nil || admitted) && !ev.recordHold(cc) {
		// A concurrent same-event branch is mid-acquisition on this child;
		// crabbing into it would race admission tracking. This pattern is
		// unsupported — crab targets must be untouched children.
		cc.lock.release(ev.id)
		return fmt.Errorf("crab %v: concurrent same-event acquisition: %w", child, ErrCrabbed)
	}
	if !ev.markCrab(c.ctx.id) {
		return fmt.Errorf("%v: %w", c.ctx.id, ErrCrabbed)
	}
	ev.asyncWG.Add(1)
	go func() {
		defer ev.asyncWG.Done()
		// EXEC hop travels while the crabbed parent is already free.
		host, err := rt.routeHop(from, cc, true)
		if err != nil {
			rt.SubEventErrors.Inc()
			return
		}
		if w != nil && !cc.lock.waitAdmitted(w) {
			rt.SubEventErrors.Inc()
			return
		}
		if _, err := rt.invoke(ev, cc, m, host, args); err != nil {
			rt.SubEventErrors.Inc()
		}
	}()
	return nil
}

// Dispatch implements schema.Call. The sub-event outlives this handler, whose
// own args may live in a buffer the next event reuses, so it gets a copy.
func (c *callEnv) Dispatch(target ownership.ID, method string, args ...schema.Value) {
	c.ev.addSub(target, method, slices.Clone(args))
}

// NewContext implements schema.Call. Owners must be held by the enclosing
// event: creating the edge mutates their ownership structure.
func (c *callEnv) NewContext(class string, owners ...ownership.ID) (ownership.ID, error) {
	for _, o := range owners {
		if !c.ev.holds(o) {
			return ownership.None, fmt.Errorf("owner %v: %w", o, ErrOwnerNotHeld)
		}
	}
	id, err := c.rt.CreateContext(class, owners...)
	if err != nil {
		return ownership.None, err
	}
	// The creating event implicitly owns the fresh context exclusively: no
	// other event can reach it before our edges are visible and we
	// terminate. Record the hold so calls into it work immediately.
	cc, err := c.rt.Context(id)
	if err != nil {
		return ownership.None, err
	}
	if err := c.rt.acquireCtx(c.ev, cc); err != nil {
		return ownership.None, err
	}
	return id, nil
}

// AddOwner implements schema.Call.
func (c *callEnv) AddOwner(parent, child ownership.ID) error {
	if !c.ev.holds(parent) {
		return fmt.Errorf("parent %v: %w", parent, ErrOwnerNotHeld)
	}
	if !c.ev.holds(child) {
		return fmt.Errorf("child %v: %w", child, ErrOwnerNotHeld)
	}
	return c.rt.AddOwnerEdge(parent, child)
}

// Children implements schema.Call.
func (c *callEnv) Children(class string) ([]ownership.ID, error) {
	// One snapshot for the listing and the class filter, so a concurrent
	// mutation can never yield a child whose class lookup then misses.
	view := c.rt.graph.Snapshot()
	children, err := view.Children(c.ctx.id)
	if err != nil {
		return nil, err
	}
	if class == "" {
		return children, nil
	}
	match := func(ch ownership.ID) bool {
		cls, err := view.Class(ch)
		return err == nil && cls == class
	}
	// The snapshot's own slice goes out unless the filter drops a child, so
	// listing a rollup's sensors copies nothing.
	for i, ch := range children {
		if !match(ch) {
			out := append([]ownership.ID(nil), children[:i]...)
			for _, ch := range children[i+1:] {
				if match(ch) {
					out = append(out, ch)
				}
			}
			return out, nil
		}
	}
	return children, nil
}

// Work implements schema.Call.
func (c *callEnv) Work(d time.Duration) {
	if server, ok := c.rt.cluster.Server(c.host); ok {
		server.Work(d)
	}
}
