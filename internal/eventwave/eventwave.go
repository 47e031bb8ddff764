// Package eventwave reimplements the EventWave baseline (Chuang et al.,
// SoCC'13) the paper compares against in § 6: applications are a *tree* of
// contexts, every event is totally ordered at the single root context, and
// ordering flows down the tree hand-over-hand — so the root is a sequencing
// bottleneck ("EventWave guarantees strict-serializability by totally
// ordering all requests at the (single) root context ... this clearly
// limits scalability"). EventWave's migration, which halts all execution
// for its duration (§ 2.1), is not modelled: no figure migrates on the
// baseline.
//
// The package reuses the schema declarations of the AEON applications so
// the same handler code runs on both systems; ownership is restricted to a
// tree at context creation.
package eventwave

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/metrics"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

var (
	// ErrClosed is returned when submitting to a closed runtime.
	ErrClosed = errors.New("eventwave: runtime closed")
	// ErrNotTree is returned when a context would get a second owner.
	ErrNotTree = errors.New("eventwave: contexts form a strict tree")
	// ErrNoRoot is returned when submitting before a root context exists.
	ErrNoRoot = errors.New("eventwave: no root context")
	// ErrUnknown is returned for unknown contexts or methods.
	ErrUnknown = errors.New("eventwave: unknown context or method")
	// ErrNotOwned mirrors the AEON runtime's direct-ownership rule.
	ErrNotOwned = errors.New("eventwave: callee not owned by caller")
)

// ClientNode is the logical client network location.
const ClientNode = transport.NodeID(-1)

// Config tunes the runtime.
type Config struct {
	// RootCost is the CPU the root context spends ordering each event —
	// the sequencing bottleneck.
	RootCost time.Duration
	// MessageBytes sizes protocol messages for latency charging.
	MessageBytes int
	// ChargeClientHops charges client↔server hops per event.
	ChargeClientHops bool
}

// DefaultConfig matches the benchmark harness settings.
func DefaultConfig() Config {
	return Config{
		RootCost:         100 * time.Microsecond,
		MessageBytes:     256,
		ChargeClientHops: true,
	}
}

type context struct {
	id     ownership.ID
	class  *schema.Class
	parent ownership.ID
	state  any

	mu       sync.Mutex // FIFO via ticket queue below
	queue    []chan struct{}
	held     bool
	children []ownership.ID
}

// lockQueued takes a FIFO queue slot immediately and returns a channel that
// closes on admission; taking the slot while an upstream context is still
// held preserves the total order established at the root.
func (c *context) lockQueued() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.held && len(c.queue) == 0 {
		c.held = true
		return closedCh
	}
	ch := make(chan struct{})
	c.queue = append(c.queue, ch)
	return ch
}

var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// lock acquires the context's exclusive lock in FIFO order.
func (c *context) lock() {
	<-c.lockQueued()
}

// unlock releases the lock, admitting the next FIFO waiter.
func (c *context) unlock() {
	c.mu.Lock()
	if len(c.queue) > 0 {
		next := c.queue[0]
		c.queue = c.queue[1:]
		close(next)
	} else {
		c.held = false
	}
	c.mu.Unlock()
}

// Runtime executes events over an EventWave context tree.
type Runtime struct {
	cfg     Config
	schema  *schema.Schema
	cluster *cluster.Cluster

	mu       sync.RWMutex
	contexts map[ownership.ID]*context
	location map[ownership.ID]cluster.ServerID
	root     ownership.ID
	nextID   ownership.ID

	closed atomic.Bool
	subWG  sync.WaitGroup

	// Latency and Completed mirror the AEON runtime's counters.
	Latency   metrics.Histogram
	Completed metrics.Counter
}

// New creates an EventWave runtime over a frozen schema.
func New(s *schema.Schema, cl *cluster.Cluster, cfg Config) (*Runtime, error) {
	if !s.Frozen() {
		return nil, fmt.Errorf("eventwave: schema must be frozen")
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = 256
	}
	return &Runtime{
		cfg:      cfg,
		schema:   s,
		cluster:  cl,
		contexts: make(map[ownership.ID]*context),
		location: make(map[ownership.ID]cluster.ServerID),
		nextID:   1,
	}, nil
}

// Cluster returns the compute substrate.
func (r *Runtime) Cluster() *cluster.Cluster { return r.cluster }

// Close drains sub-events and stops the runtime.
func (r *Runtime) Close() {
	r.closed.Store(true)
	r.subWG.Wait()
}

// CreateContext creates a tree context. The first ownerless context becomes
// the root; every other context must have exactly one owner.
func (r *Runtime) CreateContext(class string, owner ...ownership.ID) (ownership.ID, error) {
	srv := cluster.ServerID(0)
	if len(owner) > 0 {
		r.mu.RLock()
		srv = r.location[owner[0]]
		r.mu.RUnlock()
	}
	if srv == 0 {
		servers := r.cluster.Servers()
		if len(servers) == 0 {
			return ownership.None, fmt.Errorf("eventwave: no servers")
		}
		srv = servers[int(r.nextID)%len(servers)].ID()
	}
	return r.CreateContextOn(srv, class, owner...)
}

// CreateContextOn creates a tree context on an explicit server.
func (r *Runtime) CreateContextOn(srv cluster.ServerID, class string, owner ...ownership.ID) (ownership.ID, error) {
	cls := r.schema.Class(class)
	if cls == nil {
		return ownership.None, fmt.Errorf("class %q: %w", class, ErrUnknown)
	}
	if len(owner) > 1 {
		return ownership.None, ErrNotTree
	}
	server, ok := r.cluster.Server(srv)
	if !ok {
		return ownership.None, cluster.ErrNoSuchServer
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var parent ownership.ID
	if len(owner) == 1 {
		if _, ok := r.contexts[owner[0]]; !ok {
			return ownership.None, fmt.Errorf("owner %v: %w", owner[0], ErrUnknown)
		}
		parent = owner[0]
	} else if r.root != ownership.None {
		return ownership.None, fmt.Errorf("second root: %w", ErrNotTree)
	}
	id := r.nextID
	r.nextID++
	c := &context{id: id, class: cls, parent: parent, state: cls.NewState()}
	r.contexts[id] = c
	r.location[id] = srv
	server.AddHosted(1)
	if parent == ownership.None {
		r.root = id
	} else {
		r.contexts[parent].children = append(r.contexts[parent].children, id)
	}
	return id, nil
}

// Context returns a context's state (tests and setup).
func (r *Runtime) State(id ownership.ID) (any, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.contexts[id]
	if !ok {
		return nil, fmt.Errorf("%v: %w", id, ErrUnknown)
	}
	return c.state, nil
}

// Submit runs one event to completion: sequencing at the root, then a
// hand-over-hand descent to the target, then execution holding the target's
// subtree.
func (r *Runtime) Submit(target ownership.ID, method string, args ...any) (any, error) {
	return r.run(target, method, schema.AppendValues(nil, args), false)
}

func (r *Runtime) run(target ownership.ID, method string, args []schema.Value, asSub bool) (any, error) {
	if r.closed.Load() && !asSub {
		return nil, ErrClosed
	}
	start := time.Now()

	r.mu.RLock()
	root := r.root
	tc, ok := r.contexts[target]
	r.mu.RUnlock()
	if root == ownership.None {
		return nil, ErrNoRoot
	}
	if !ok {
		return nil, fmt.Errorf("%v: %w", target, ErrUnknown)
	}
	m := tc.class.Method(method)
	if m == nil {
		return nil, fmt.Errorf("%s.%s: %w", tc.class.Name(), method, ErrUnknown)
	}

	// Path root → target.
	path, err := r.pathFromRoot(target)
	if err != nil {
		return nil, err
	}

	net := r.cluster.Net()
	if r.cfg.ChargeClientHops {
		if err := net.Hop(ClientNode, r.locationOf(root), r.cfg.MessageBytes); err != nil {
			return nil, err
		}
	}

	ev := &event{rt: r}
	defer ev.releaseAll()

	// Sequence at the root: acquire the root lock, pay the ordering cost.
	rootCtx := r.context(root)
	rootCtx.lock()
	ev.hold(rootCtx)
	if r.cfg.RootCost > 0 {
		if srv, ok := r.cluster.Server(r.locationOf(root)); ok {
			srv.Work(r.cfg.RootCost)
		}
	}

	// Hand-over-hand descent: take the child's queue slot while the parent
	// is still held (preserving the root's total order at every context),
	// release the parent, then pay the downstream message hop and wait for
	// admission — the pipeline behaviour that lets EventWave overlap events
	// in disjoint subtrees while the root only pays its ordering cost.
	cur := r.locationOf(root)
	for i := 1; i < len(path); i++ {
		c := r.context(path[i])
		admitted := c.lockQueued()
		ev.hold(c)
		ev.releaseOne(path[i-1]) // crab down
		next := r.locationOf(path[i])
		if next != cur {
			if err := net.Hop(cur, next, r.cfg.MessageBytes); err != nil {
				<-admitted // own the slot before bailing so releaseAll is safe
				return nil, err
			}
			cur = next
		}
		<-admitted
	}

	env := &callEnv{rt: r, ev: ev, ctx: tc, method: m}
	res, err := r.invoke(env, args)
	ev.wg.Wait()
	// Locks release at event termination, before the reply travels back.
	ev.releaseAll()

	if r.cfg.ChargeClientHops {
		_ = net.Hop(r.locationOf(target), ClientNode, r.cfg.MessageBytes)
	}
	r.Latency.Record(time.Since(start))
	r.Completed.Inc()

	for _, sub := range ev.takeSubs() {
		r.subWG.Add(1)
		go func(s subEvent) {
			defer r.subWG.Done()
			_, _ = r.run(s.target, s.method, s.args, true)
		}(sub)
	}
	return res.Any(), err
}

func (r *Runtime) invoke(env *callEnv, args []schema.Value) (schema.Value, error) {
	if env.method.Cost > 0 {
		if srv, ok := r.cluster.Server(r.locationOf(env.ctx.id)); ok {
			srv.Work(env.method.Cost)
		}
	}
	if env.method.Handler == nil {
		return schema.Value{}, fmt.Errorf("%s.%s: %w", env.ctx.class.Name(), env.method.Name, ErrUnknown)
	}
	return env.method.Handler(env, args)
}

func (r *Runtime) context(id ownership.ID) *context {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.contexts[id]
}

func (r *Runtime) locationOf(id ownership.ID) cluster.ServerID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.location[id]
}

func (r *Runtime) pathFromRoot(target ownership.ID) ([]ownership.ID, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var rev []ownership.ID
	cur := target
	for {
		rev = append(rev, cur)
		c, ok := r.contexts[cur]
		if !ok {
			return nil, fmt.Errorf("%v: %w", cur, ErrUnknown)
		}
		if c.parent == ownership.None {
			break
		}
		cur = c.parent
	}
	if rev[len(rev)-1] != r.root {
		return nil, fmt.Errorf("%v not under root: %w", target, ErrUnknown)
	}
	// Reverse to root→target order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
