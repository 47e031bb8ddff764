package eventwave

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// event tracks the contexts an EventWave event holds.
type event struct {
	rt *Runtime

	mu   sync.Mutex
	held []*context
	set  map[ownership.ID]bool
	subs []subEvent

	wg sync.WaitGroup
}

type subEvent struct {
	target ownership.ID
	method string
	args   []schema.Value
}

func (e *event) hold(c *context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.set == nil {
		e.set = make(map[ownership.ID]bool, 4)
	}
	if e.set[c.id] {
		return
	}
	e.set[c.id] = true
	e.held = append(e.held, c)
}

func (e *event) holds(id ownership.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.set[id]
}

// releaseOne releases one held context (hand-over-hand descent).
func (e *event) releaseOne(id ownership.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.set[id] {
		return
	}
	delete(e.set, id)
	for i, c := range e.held {
		if c.id == id {
			e.held = append(e.held[:i], e.held[i+1:]...)
			c.unlock()
			return
		}
	}
}

// releaseAll releases everything still held, in reverse order.
func (e *event) releaseAll() {
	e.mu.Lock()
	held := e.held
	e.held = nil
	e.set = nil
	e.mu.Unlock()
	for i := len(held) - 1; i >= 0; i-- {
		held[i].unlock()
	}
}

func (e *event) addSub(target ownership.ID, method string, args []schema.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.subs = append(e.subs, subEvent{target, method, args})
}

func (e *event) takeSubs() []subEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	subs := e.subs
	e.subs = nil
	return subs
}

// callEnv implements schema.Call for EventWave so the same application
// handlers run on both systems.
type callEnv struct {
	rt     *Runtime
	ev     *event
	ctx    *context
	method *schema.Method
}

var _ schema.Call = (*callEnv)(nil)

// Self implements schema.Call.
func (c *callEnv) Self() ownership.ID { return c.ctx.id }

// Class implements schema.Call.
func (c *callEnv) Class() string { return c.ctx.class.Name() }

// State implements schema.Call.
func (c *callEnv) State() any { return c.ctx.state }

// EventID implements schema.Call (EventWave does not expose ids; 0).
func (c *callEnv) EventID() uint64 { return 0 }

// ReadOnly implements schema.Call: EventWave totally orders all events, so
// nothing runs in share mode.
func (c *callEnv) ReadOnly() bool { return false }

func (c *callEnv) prepare(child ownership.ID, method string) (*context, *schema.Method, error) {
	cc := c.rt.context(child)
	if cc == nil {
		return nil, nil, fmt.Errorf("%v: %w", child, ErrUnknown)
	}
	if cc.parent != c.ctx.id {
		return nil, nil, fmt.Errorf("%v → %v: %w", c.ctx.id, child, ErrNotOwned)
	}
	m := cc.class.Method(method)
	if m == nil {
		return nil, nil, fmt.Errorf("%s.%s: %w", cc.class.Name(), method, ErrUnknown)
	}
	from := c.rt.locationOf(c.ctx.id)
	to := c.rt.locationOf(child)
	if from != to {
		if err := c.rt.cluster.Net().Hop(from, to, c.rt.cfg.MessageBytes); err != nil {
			return nil, nil, err
		}
	}
	if !c.ev.holds(child) {
		cc.lock()
		c.ev.hold(cc)
	}
	return cc, m, nil
}

// Sync implements schema.Call.
func (c *callEnv) Sync(child ownership.ID, method string, args ...schema.Value) (schema.Value, error) {
	cc, m, err := c.prepare(child, method)
	if err != nil {
		return schema.Value{}, err
	}
	env := &callEnv{rt: c.rt, ev: c.ev, ctx: cc, method: m}
	return c.rt.invoke(env, args)
}

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

// Async implements schema.Call.
func (c *callEnv) Async(child ownership.ID, method string, args ...schema.Value) schema.AsyncResult {
	a := &asyncResult{done: make(chan struct{})}
	cc, m, err := c.prepare(child, method)
	if err != nil {
		a.err = err
		close(a.done)
		return a
	}
	c.ev.wg.Add(1)
	go func() {
		defer c.ev.wg.Done()
		defer close(a.done)
		env := &callEnv{rt: c.rt, ev: c.ev, ctx: cc, method: m}
		a.res, a.err = c.rt.invoke(env, args)
	}()
	return a
}

// Crab implements schema.Call. EventWave has no early-release tail calls;
// it degrades to a plain asynchronous call.
func (c *callEnv) Crab(child ownership.ID, method string, args ...schema.Value) error {
	c.Async(child, method, args...)
	return nil
}

// Dispatch implements schema.Call.
func (c *callEnv) Dispatch(target ownership.ID, method string, args ...schema.Value) {
	c.ev.addSub(target, method, slices.Clone(args))
}

// NewContext implements schema.Call.
func (c *callEnv) NewContext(class string, owners ...ownership.ID) (ownership.ID, error) {
	if len(owners) > 1 {
		return ownership.None, ErrNotTree
	}
	return c.rt.CreateContext(class, owners...)
}

// AddOwner implements schema.Call: EventWave "does not support modification
// of tree edges" (§ 2.1).
func (c *callEnv) AddOwner(parent, child ownership.ID) error {
	return fmt.Errorf("add owner: %w", ErrNotTree)
}

// Children implements schema.Call.
func (c *callEnv) Children(class string) ([]ownership.ID, error) {
	c.rt.mu.RLock()
	defer c.rt.mu.RUnlock()
	var out []ownership.ID
	for _, ch := range c.ctx.children {
		if class == "" || c.rt.contexts[ch].class.Name() == class {
			out = append(out, ch)
		}
	}
	return out, nil
}

// Work implements schema.Call.
func (c *callEnv) Work(d time.Duration) {
	if srv, ok := c.rt.cluster.Server(c.rt.locationOf(c.ctx.id)); ok {
		srv.Work(d)
	}
}
