// Package orleans reimplements the Orleans baseline (Bykov et al., SoCC'11)
// the paper compares against in § 6: virtual actors ("grains") that are
// single-threaded and non-reentrant, communicate by asynchronous messages,
// and offer no multi-grain atomicity. Cyclic synchronous call chains
// deadlock in Orleans; this implementation detects them on the call path
// and fails the call (the paper: "it's easy to run into deadlocks in
// Orleans with (a cycle of) synchronous method calls").
//
// A configurable per-message overhead factor models the managed-runtime
// (C#) cost the paper cites when explaining why AEON's C++ implementation
// outperforms Orleans ("AEON is implemented in C++ and Orleans uses C#").
// Grain placement hashes over the servers with no locality awareness —
// reason 2 of the paper's § 6.1.1 performance analysis.
package orleans

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/metrics"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

var (
	// ErrClosed is returned when calling into a closed runtime.
	ErrClosed = errors.New("orleans: runtime closed")
	// ErrUnknown is returned for unknown grains, classes or methods.
	ErrUnknown = errors.New("orleans: unknown grain, class or method")
	// ErrDeadlock is returned when a synchronous call chain would cycle
	// back into a non-reentrant grain.
	ErrDeadlock = errors.New("orleans: call cycle into non-reentrant grain")
	// ErrDuplicate is returned when a class is registered twice.
	ErrDuplicate = errors.New("orleans: duplicate class")
)

// ClientNode is the logical client network location.
const ClientNode = transport.NodeID(-1)

// GrainID identifies a grain.
type GrainID uint64

// String renders the grain ID.
func (g GrainID) String() string { return fmt.Sprintf("grain#%d", uint64(g)) }

// Handler is a grain method body. Its arguments and result are schema.Values,
// as an AEON handler's are, so the same bodies read the same way on both.
type Handler func(call *Call, args []schema.Value) (schema.Value, error)

// Method describes one grain method.
type Method struct {
	Name string
	// Cost is the simulated CPU per invocation (scaled by the runtime's
	// overhead factor).
	Cost    time.Duration
	Handler Handler
}

// Class describes a grain class.
type Class struct {
	Name string
	// New creates the grain state.
	New func() any
	// Reentrant allows calls from the grain's own call chain to execute
	// inline instead of deadlocking (Orleans' [Reentrant]).
	Reentrant bool
	// Stateless marks a stateless-worker grain: calls execute concurrently
	// up to Workers (Orleans' [StatelessWorker]).
	Stateless bool
	// Workers bounds stateless concurrency (default 8).
	Workers int

	methods map[string]*Method
}

// Config tunes the runtime.
type Config struct {
	// OverheadFactor scales method Cost (managed-runtime overhead vs the
	// paper's C++ AEON; ≥ 1).
	OverheadFactor float64
	// MessageCPU is the per-delivered-message dispatch cost (scheduling,
	// serialization) burned on the grain's server; every grain call pays it
	// where AEON's co-located calls are plain function calls — the locality
	// argument of § 6.1.1.
	MessageCPU time.Duration
	// MessageBytes sizes messages for latency charging.
	MessageBytes int
	// ChargeClientHops charges client↔server hops per call.
	ChargeClientHops bool
}

// DefaultConfig matches the benchmark harness settings.
func DefaultConfig() Config {
	return Config{
		OverheadFactor:   1.4,
		MessageCPU:       75 * time.Microsecond,
		MessageBytes:     256,
		ChargeClientHops: true,
	}
}

type invocation struct {
	method *Method
	args   []schema.Value
	chain  []GrainID
	reply  chan result
	// deferred is set when the handler takes over the reply.
	deferred bool
}

type result struct {
	res schema.Value
	err error
}

type grain struct {
	id     GrainID
	class  *Class
	state  any
	server cluster.ServerID

	mu     sync.Mutex
	queue  []*invocation
	notify chan struct{}

	// workers is the stateless-worker semaphore (nil for normal grains).
	workers chan struct{}
}

// Runtime hosts grains over a cluster.
type Runtime struct {
	cfg     Config
	cluster *cluster.Cluster

	mu      sync.RWMutex
	classes map[string]*Class
	grains  map[GrainID]*grain
	nextID  uint64

	closed atomic.Bool
	wg     sync.WaitGroup

	// Latency and Completed mirror the AEON runtime's counters; Deadlocks
	// counts detected call cycles.
	Latency   metrics.Histogram
	Completed metrics.Counter
	Deadlocks metrics.Counter
}

// New creates an Orleans runtime.
func New(cl *cluster.Cluster, cfg Config) *Runtime {
	if cfg.OverheadFactor < 1 {
		cfg.OverheadFactor = 1
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = 256
	}
	return &Runtime{
		cfg:     cfg,
		cluster: cl,
		classes: make(map[string]*Class),
		grains:  make(map[GrainID]*grain),
	}
}

// RegisterClass declares a grain class.
func (r *Runtime) RegisterClass(c *Class) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.classes[c.Name]; ok {
		return fmt.Errorf("%s: %w", c.Name, ErrDuplicate)
	}
	if c.methods == nil {
		c.methods = make(map[string]*Method)
	}
	if c.Stateless && c.Workers == 0 {
		c.Workers = 8
	}
	r.classes[c.Name] = c
	return nil
}

// DeclareMethod adds a method to a registered class.
func (r *Runtime) DeclareMethod(class, name string, cost time.Duration, h Handler) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.classes[class]
	if !ok {
		return fmt.Errorf("%s: %w", class, ErrUnknown)
	}
	if _, ok := c.methods[name]; ok {
		return fmt.Errorf("%s.%s: %w", class, name, ErrDuplicate)
	}
	c.methods[name] = &Method{Name: name, Cost: cost, Handler: h}
	return nil
}

// CreateGrain activates a grain of the given class; placement hashes the
// grain ID over the current servers (no locality awareness).
func (r *Runtime) CreateGrain(class string) (GrainID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cls, ok := r.classes[class]
	if !ok {
		return 0, fmt.Errorf("%s: %w", class, ErrUnknown)
	}
	servers := r.cluster.Servers()
	if len(servers) == 0 {
		return 0, fmt.Errorf("orleans: no servers")
	}
	r.nextID++
	id := GrainID(r.nextID)
	srv := servers[(uint64(id)*2654435761)%uint64(len(servers))]
	g := &grain{
		id:     id,
		class:  cls,
		state:  nil,
		server: srv.ID(),
		notify: make(chan struct{}, 1),
	}
	if cls.New != nil {
		g.state = cls.New()
	}
	if cls.Stateless {
		g.workers = make(chan struct{}, cls.Workers)
	} else {
		r.wg.Add(1)
		go r.grainLoop(g)
	}
	r.grains[id] = g
	srv.AddHosted(1)
	return id, nil
}

// grainLoop is the single-threaded message pump of a stateful grain.
func (r *Runtime) grainLoop(g *grain) {
	defer r.wg.Done()
	defer g.failPending()
	for {
		g.mu.Lock()
		for len(g.queue) == 0 {
			g.mu.Unlock()
			<-g.notify
			if r.closed.Load() {
				return
			}
			g.mu.Lock()
		}
		inv := g.queue[0]
		g.queue = g.queue[1:]
		g.mu.Unlock()

		r.execute(g, inv)
		if r.closed.Load() {
			return
		}
	}
}

// failPending rejects queued invocations when the loop exits so callers
// blocked on replies observe ErrClosed instead of hanging.
func (g *grain) failPending() {
	g.mu.Lock()
	pending := g.queue
	g.queue = nil
	g.mu.Unlock()
	for _, inv := range pending {
		inv.reply <- result{err: ErrClosed}
	}
}

func (r *Runtime) execute(g *grain, inv *invocation) {
	r.chargeCPU(g, inv.method)
	call := &Call{rt: r, grain: g, inv: inv}
	res, err := inv.method.Handler(call, inv.args)
	if !inv.deferred {
		inv.reply <- result{res: res, err: err}
	}
}

// chargeCPU burns the per-message dispatch cost plus the method's declared
// cost (both scaled by the managed-runtime overhead factor) on the grain's
// server.
func (r *Runtime) chargeCPU(g *grain, m *Method) {
	total := r.cfg.MessageCPU + m.Cost
	if total <= 0 {
		return
	}
	if srv, ok := r.cluster.Server(g.server); ok {
		srv.Work(time.Duration(float64(total) * r.cfg.OverheadFactor))
	}
}

// enqueue delivers an invocation to a grain's mailbox.
func (g *grain) enqueue(inv *invocation) {
	g.mu.Lock()
	g.queue = append(g.queue, inv)
	g.mu.Unlock()
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// Close stops grain loops after their current message.
func (r *Runtime) Close() {
	if r.closed.Swap(true) {
		return
	}
	r.mu.RLock()
	for _, g := range r.grains {
		select {
		case g.notify <- struct{}{}:
		default:
		}
	}
	r.mu.RUnlock()
	r.wg.Wait()
}

// Call invokes a grain method from a client and waits for the reply.
func (r *Runtime) Call(to GrainID, method string, args ...any) (any, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	start := time.Now()
	res, err := r.call(ClientNode, nil, to, method, schema.AppendValues(nil, args))
	r.Latency.Record(time.Since(start))
	r.Completed.Inc()
	return res.Any(), err
}

// call routes one invocation; chain carries the synchronous call path for
// deadlock detection.
func (r *Runtime) call(from transport.NodeID, chain []GrainID, to GrainID, method string, args []schema.Value) (schema.Value, error) {
	r.mu.RLock()
	g, ok := r.grains[to]
	r.mu.RUnlock()
	if !ok {
		return schema.Value{}, fmt.Errorf("%v: %w", to, ErrUnknown)
	}
	m := g.class.methods[method]
	if m == nil {
		return schema.Value{}, fmt.Errorf("%s.%s: %w", g.class.Name, method, ErrUnknown)
	}
	// Message hop (client calls charge only when configured).
	if from != g.server && (from != ClientNode || r.cfg.ChargeClientHops) {
		if err := r.cluster.Net().Hop(from, g.server, r.cfg.MessageBytes); err != nil {
			return schema.Value{}, err
		}
	}

	inv := &invocation{method: m, args: args, reply: make(chan result, 1)}
	inv.chain = append(append([]GrainID(nil), chain...), to)

	// Cycle back into a grain already on the chain: reentrant classes run
	// inline (their loop is blocked awaiting this very chain, so state
	// access stays single-threaded); others deadlock.
	for _, link := range chain {
		if link == to {
			if g.class.Reentrant {
				r.chargeCPU(g, m)
				call := &Call{rt: r, grain: g, inv: inv}
				return m.Handler(call, args)
			}
			r.Deadlocks.Inc()
			return schema.Value{}, fmt.Errorf("%v via %v: %w", to, chain, ErrDeadlock)
		}
	}

	if g.class.Stateless {
		g.workers <- struct{}{}
		defer func() { <-g.workers }()
		r.chargeCPU(g, m)
		call := &Call{rt: r, grain: g, inv: inv}
		return m.Handler(call, args)
	}

	g.enqueue(inv)
	out := <-inv.reply
	// Reply hop back to the caller.
	if from != g.server && (from != ClientNode || r.cfg.ChargeClientHops) {
		_ = r.cluster.Net().Hop(g.server, from, r.cfg.MessageBytes)
	}
	return out.res, out.err
}

// Location returns a grain's hosting server.
func (r *Runtime) Location(id GrainID) (cluster.ServerID, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.grains[id]
	if !ok {
		return 0, false
	}
	return g.server, true
}

// State exposes grain state for tests and setup.
func (r *Runtime) State(id GrainID) (any, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.grains[id]
	if !ok {
		return nil, fmt.Errorf("%v: %w", id, ErrUnknown)
	}
	return g.state, nil
}

// Call is the environment a grain method executes in.
type Call struct {
	rt    *Runtime
	grain *grain
	inv   *invocation
}

// Self returns the executing grain.
func (c *Call) Self() GrainID { return c.grain.id }

// State returns the grain state.
func (c *Call) State() any { return c.grain.state }

// Call synchronously invokes another grain. The calling grain's message
// loop stays blocked until the reply arrives (non-reentrancy).
func (c *Call) Call(to GrainID, method string, args ...schema.Value) (schema.Value, error) {
	return c.rt.call(c.grain.server, c.inv.chain, to, method, args)
}

// Promise is an outstanding asynchronous grain call.
type Promise struct {
	done chan struct{}
	res  schema.Value
	err  error
}

// Wait blocks until the call completes.
func (p *Promise) Wait() (schema.Value, error) {
	<-p.done
	return p.res, p.err
}

// CallAsync invokes another grain without blocking the current handler;
// the grain still does not process new messages until the handler returns.
func (c *Call) CallAsync(to GrainID, method string, args ...schema.Value) *Promise {
	p := &Promise{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.res, p.err = c.rt.call(c.grain.server, c.inv.chain, to, method, args)
	}()
	return p
}

// Deferred is a reply the handler resolves later (Orleans'
// TaskCompletionSource pattern, used by application-level lock grains).
type Deferred struct {
	inv *invocation
}

// DeferReply takes over the reply: the handler's return value is ignored
// and the caller stays blocked until Resolve is called.
func (c *Call) DeferReply() *Deferred {
	c.inv.deferred = true
	return &Deferred{inv: c.inv}
}

// Resolve completes a deferred reply.
func (d *Deferred) Resolve(res schema.Value, err error) {
	d.inv.reply <- result{res: res, err: err}
}
