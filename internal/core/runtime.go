package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cluster"
	"aeon/internal/metrics"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Config tunes the runtime.
type Config struct {
	// MessageBytes approximates the payload size of protocol messages
	// (activation and execution requests) for network latency charging.
	MessageBytes int
	// ChargeClientHops charges the client→dominator request hop and the
	// target→client reply hop on every event (on by default in New).
	ChargeClientHops bool
	// AcquireTimeout, when positive, bounds context activation waits and
	// fails the event with ErrAcquireTimeout. The protocol is deadlock-free
	// for valid ownership networks; tests use this as a watchdog.
	AcquireTimeout time.Duration
	// StalenessWindow is how long after a migration routing to the moved
	// context still pays the stale-cache forwarding hop (§ 5.2).
	StalenessWindow time.Duration
	// ExecWorkersPerServer bounds how many asynchronous events (SubmitAsync
	// and dispatched sub-events) execute concurrently per server. Zero means
	// 8. Synchronous Submit runs on the caller's goroutine and is not
	// bounded here. Because the pool is bounded, application code running
	// inside an event handler must not block on a Future from SubmitAsync:
	// if every worker of a server blocks waiting on futures whose events
	// are queued behind them, the pool deadlocks. Handlers should use the
	// intra-event Async/Crab calls (unbounded, joined by the event) or
	// Dispatch sub-events instead.
	ExecWorkersPerServer int
	// ExecQueueDepth bounds each server's pending asynchronous submissions.
	// A full queue surfaces as ErrBackpressure on the Future (sub-events
	// instead run inline on the dispatching goroutine). Zero means 1024.
	ExecQueueDepth int
	// SharedOwnershipUpdateCost charges the creation of a *multi-owned*
	// context: sharing edges are part of the authoritative ownership
	// network the eManager keeps in cloud storage (§ 5.1), so creating a
	// shared context is a globally serialized update. Single-owner
	// creation is a local structural change and stays free. The TPC-C
	// benchmarks set this; it is the mechanism behind AEON's earlier
	// saturation versus AEON_SO in Figure 6a.
	SharedOwnershipUpdateCost time.Duration
}

// DefaultConfig returns the configuration used by the benchmark harness.
func DefaultConfig() Config {
	return Config{
		MessageBytes:     256,
		ChargeClientHops: true,
		StalenessWindow:  2 * time.Second,
	}
}

// Runtime executes AEON events over an ownership network on a cluster.
type Runtime struct {
	cfg     Config
	schema  *schema.Schema
	graph   *ownership.Graph
	cluster *cluster.Cluster
	dir     *Directory

	// reg is the striped context registry: per-event lookups and
	// registrations take only the shard the context hashes to, never a
	// process-global lock.
	reg *registry
	// exec runs asynchronous events and sub-events on bounded per-server
	// worker pools.
	exec *executor
	// Latency records end-to-end event latency, one sample per completed
	// event, so its count is Completed. Every event reads its one word, so it
	// sits a cache line away from eventSeq, which every event writes.
	Latency metrics.Histogram

	placeCursor atomic.Uint64

	// sharedCreateMu serializes multi-owned context creation when
	// SharedOwnershipUpdateCost is configured (the global ownership-network
	// update).
	sharedCreateMu sync.Mutex

	// Multi-process hooks (SetRemote): isLocal reports whether this process
	// embodies a server; forward delegates an event to the node hosting it.
	// nil isLocal means single-process mode — every server is local.
	isLocal func(cluster.ServerID) bool
	forward ForwardFunc

	// repl, when installed (SetReplicator), sequences structural mutations
	// through the fleet-wide log instead of applying them process-locally.
	repl Replicator

	eventSeq atomic.Uint64
	// draining refuses events (Drain and Close); closed refuses snapshots
	// too, once Close has stopped the executors. wrote is set by the first
	// event with write access to execute (Wrote).
	draining, closed, wrote atomic.Bool
	subWG                   sync.WaitGroup

	// SubEventErrors counts sub-events that failed (they have no client to
	// report to).
	SubEventErrors metrics.Counter
	// Backpressure counts asynchronous submissions that found their
	// server's executor queue full.
	Backpressure metrics.Counter
	// ActivationWaits counts activations that queued behind another event,
	// and ActivationWait is how long each of them queued (one word until the
	// first wait).
	ActivationWaits metrics.Counter
	ewma            metrics.StripedEWMA // RecentLatency, fed once per frame by Frame.End
	ActivationWait  metrics.Histogram
}

// New creates a runtime over a frozen schema, an ownership graph, and a
// cluster. The graph may be pre-populated or built through CreateContext.
func New(s *schema.Schema, g *ownership.Graph, cl *cluster.Cluster, cfg Config) (*Runtime, error) {
	if !s.Frozen() {
		return nil, fmt.Errorf("core: schema must be frozen before use")
	}
	if cfg.MessageBytes == 0 {
		cfg.MessageBytes = 256
	}
	if cfg.StalenessWindow == 0 {
		cfg.StalenessWindow = 2 * time.Second
	}
	return &Runtime{
		cfg:     cfg,
		schema:  s,
		graph:   g,
		cluster: cl,
		dir:     NewDirectory(cfg.StalenessWindow),
		reg:     newRegistry(),
		exec:    newExecutor(cfg.ExecWorkersPerServer, cfg.ExecQueueDepth),
	}, nil
}

// ForwardFunc delegates an event to the process embodying the server that
// hosts its sequencing point (the node runtime sends a frame of one over the
// transport mesh and returns the remote result, unboxed).
type ForwardFunc func(host cluster.ServerID, target ownership.ID, method string, args []schema.Value) (schema.Value, error)

// SetRemote installs the multi-process hooks: isLocal reports whether this
// process embodies a server, and forward delegates events whose dominator
// lives elsewhere. Call once during node startup, before events are
// submitted; nil isLocal restores single-process behavior. The runtime
// re-checks locality after admission (the dominator lock is held), so an
// event that raced a migration onto another node is released and forwarded
// instead of executing against state that has already moved away.
func (r *Runtime) SetRemote(isLocal func(cluster.ServerID) bool, forward ForwardFunc) {
	r.isLocal = isLocal
	r.forward = forward
}

// Graph returns the ownership network.
func (r *Runtime) Graph() *ownership.Graph { return r.graph }

// Directory returns the context-placement directory.
func (r *Runtime) Directory() *Directory { return r.dir }

// Cluster returns the compute substrate.
func (r *Runtime) Cluster() *cluster.Cluster { return r.cluster }

// Schema returns the application schema.
func (r *Runtime) Schema() *schema.Schema { return r.schema }

// Drain stops admitting events and waits for the admitted ones, sub-events
// included, to finish. An event is refused once it holds its dominator, so
// taking and releasing every context's activation in turn waits out each
// event that got past that point; events that queued behind it are refused.
// Snapshots still run on a drained runtime: a node checkpoints it before
// Close.
func (r *Runtime) Drain() {
	r.draining.Store(true)
	eventID := r.eventSeq.Add(1)
	for _, c := range r.reg.all() {
		_, _, _ = c.lock.acquire(eventID, EX, 0) // without a timeout it cannot fail
		c.lock.release(eventID)
	}
	r.subWG.Wait()
}

// Wrote reports whether an event with write access has executed. Until one
// has, every context holds the state it was built or restored with.
func (r *Runtime) Wrote() bool { return r.wrote.Load() }

// Close drains the runtime, then stops the per-server executors.
func (r *Runtime) Close() {
	r.Drain()
	r.closed.Store(true)
	r.exec.shutdown()
}

// CreateContext creates a context of the given class owned by owners and
// places it on the server hosting the first owner (the locality-aware
// placement the paper credits for AEON's low message overhead); ownerless
// contexts are placed round-robin.
func (r *Runtime) CreateContext(class string, owners ...ownership.ID) (ownership.ID, error) {
	srv, err := r.defaultPlacement(owners)
	if err != nil {
		return ownership.None, err
	}
	return r.CreateContextOn(srv, class, owners...)
}

// CreateContextOn creates a context on an explicit server. With a
// replicator installed the mutation is sequenced through the fleet-wide log
// (the log order, not this call's local order, assigns the ID); otherwise it
// applies process-locally.
func (r *Runtime) CreateContextOn(srv cluster.ServerID, class string, owners ...ownership.ID) (ownership.ID, error) {
	if r.schema.Class(class) == nil {
		return ownership.None, fmt.Errorf("class %q: %w", class, schema.ErrUnknownClass)
	}
	if _, ok := r.cluster.Server(srv); !ok {
		return ownership.None, fmt.Errorf("create %q: %w", class, cluster.ErrNoSuchServer)
	}
	if len(owners) > 1 && r.cfg.SharedOwnershipUpdateCost > 0 {
		// Publishing a sharing edge updates the authoritative ownership
		// network (eManager + cloud storage): globally serialized.
		r.sharedCreateMu.Lock()
		time.Sleep(r.cfg.SharedOwnershipUpdateCost)
		r.sharedCreateMu.Unlock()
	}
	if r.repl != nil {
		return r.repl.CreateContext(class, srv, owners)
	}
	return r.ApplyCreateContext(class, srv, owners...)
}

func (r *Runtime) defaultPlacement(owners []ownership.ID) (cluster.ServerID, error) {
	if len(owners) > 0 {
		if srv, ok := r.dir.Locate(owners[0]); ok {
			return srv, nil
		}
	}
	servers := r.cluster.Servers()
	if len(servers) == 0 {
		return 0, fmt.Errorf("core: cluster has no servers")
	}
	idx := int((r.placeCursor.Add(1) - 1) % uint64(len(servers)))
	return servers[idx].ID(), nil
}

// Context returns the runtime entry for a context, lazily materializing
// entries for virtual contexts the ownership graph created as sequencing
// points.
func (r *Runtime) Context(id ownership.ID) (*Context, error) {
	if c, ok := r.reg.get(id); ok {
		return c, nil
	}
	view := r.graph.Snapshot()
	class, err := view.Class(id)
	if err != nil || class != ownership.VirtualClass {
		return nil, fmt.Errorf("%v: %w", id, ErrUnknownContext)
	}
	// Materialize under the registry shard lock so racing callers observe
	// the virtual sequencer only once it is placed and counted.
	c, _ := r.reg.getOrPut(id, func() *Context {
		c := &Context{id: id, class: schema.VirtualContextClass()}
		// Place the virtual sequencer alongside its first child for locality.
		srv := cluster.ServerID(0)
		if children, err := view.Children(id); err == nil && len(children) > 0 {
			if s, ok := r.dir.Locate(children[0]); ok {
				srv = s
			}
		}
		if srv == 0 {
			if servers := r.cluster.Servers(); len(servers) > 0 {
				srv = servers[0].ID()
			}
		}
		r.dir.Place(id, srv)
		if server, ok := r.cluster.Server(srv); ok {
			server.AddHosted(1)
		}
		return c
	})
	return c, nil
}

// DestroyContext removes a leaf context with no remaining edges from the
// runtime (e.g. consumed TPC-C NewOrder markers). The caller must ensure no
// event holds it. With a replicator installed the removal is sequenced
// through the fleet-wide log like every other structural mutation.
func (r *Runtime) DestroyContext(id ownership.ID) error {
	if r.repl != nil {
		return r.repl.DestroyContext(id)
	}
	return r.ApplyDestroyContext(id)
}

// Submit runs an event to completion and returns its result (the paper's
// `event x.m(args)` decorated call, § 3). Its args become Values in a buffer
// of the frame's event record, which the next event reuses (Dispatch copies).
func (r *Runtime) Submit(target ownership.ID, method string, args ...any) (any, error) {
	f := r.BeginFrame()
	f.ev = eventPool.Get().(*event)
	f.ev.args = schema.AppendValues(f.ev.args[:0], args)
	res, err := f.runOne(target, method, f.ev.args)
	return res.Any(), err
}

// SubmitAsync runs an event on the executor pool of the server hosting the
// target context and returns a Future. When that server's submission queue
// is full the Future completes immediately with ErrBackpressure.
//
// Do not call Future.Wait from inside an event handler: workers are a
// bounded pool (Config.ExecWorkersPerServer), and a handler blocking on an
// event queued behind it can exhaust the pool and deadlock. Handlers should
// use Call.Async/Call.Crab for intra-event concurrency or Call.Dispatch for
// follow-on events.
func (r *Runtime) SubmitAsync(target ownership.ID, method string, args ...any) *Future {
	f := newFuture()
	r.subWG.Add(1)
	err := r.exec.trySubmit(r.execServer(target), func() {
		defer r.subWG.Done()
		f.complete(r.Submit(target, method, args...))
	})
	if err != nil {
		r.subWG.Done()
		if err == ErrBackpressure {
			r.Backpressure.Inc()
		}
		f.complete(nil, err)
	}
	return f
}

// execServer picks the executor pool for an asynchronous submission: the
// server currently hosting the target, or server 0's pool (shared overflow)
// for targets not yet placed (e.g. unmaterialized virtual sequencers).
func (r *Runtime) execServer(target ownership.ID) cluster.ServerID {
	if srv, ok := r.dir.Locate(target); ok {
		return srv
	}
	return 0
}

// runOne executes one event as the frame's only one and ends the frame. An
// event sequenced on a server another process embodies is delegated there
// through the forwarding hook. Submit boxes the result.
func (f *Frame) runOne(target ownership.ID, method string, args []schema.Value) (schema.Value, error) {
	r := f.r
	res, host, local, err := f.Run(target, method, args)
	if !local {
		if r.forward == nil {
			err = fmt.Errorf("%v on %v: %w", target, host, ErrNotLocal)
		} else {
			res, err = r.forward(host, target, method, args)
		}
		f.close(r.eventSeq.Add(1))
	}
	f.End()
	return res, err
}

// Frame is one admission's worth of events run back to back on the caller's
// goroutine: a batch frame's events on a node, or a single Submit (a frame
// of one). What its events can share is paid once per frame instead of once
// per event: the clock is read at event boundaries only — event i's end is
// event i+1's start, N+1 reads for N events, one latency sample each — and
// the replication log is pulled at most once however many unknown targets
// the frame names; its events share one event record, and End feeds the
// latency EWMA once for them all. A Frame is not safe for concurrent use.
type Frame struct {
	r           *Runtime
	ev          *event        // the frame's event record, from Submit or its first Run to End
	start, last clock.Instant // BeginFrame's reading and the previous event boundary
	ran         int           // events closed so far
	lastID      uint64        // the last closed event's ID; zero again once End observed it
	caughtUp    bool          // this frame already pulled the mutation log
	asSub       bool          // sub-events dispatched before Drain run while it drains
}

// BeginFrame opens a frame at the current instant.
func (r *Runtime) BeginFrame() Frame {
	now := clock.Now()
	return Frame{r: r, start: now, last: now}
}

// Clock returns the frame's latest clock reading: BeginFrame's, or the end of
// the last event Run executed.
func (f *Frame) Clock() clock.Instant { return f.last }

// Ran returns how many events the frame has executed, each with its latency
// sample; events that failed before admission, or that Run reported as not
// local, are not among them.
func (f *Frame) Ran() int { return f.ran }

// close ends one event at the current instant: its latency sample runs from
// the previous event boundary, and the next event starts here.
func (f *Frame) close(eventID uint64) {
	f.ran++
	f.lastID = eventID
	now := clock.Now()
	f.r.Latency.Record(now.Sub(f.last))
	f.last = now
}

// End closes the frame. It feeds RecentLatency one observation, the mean
// latency of the events the frame ran — a frame of one, every Submit, feeds
// its event's own sample — and returns the frame's event record to the pool.
// A second End does nothing.
func (f *Frame) End() {
	if f.ev != nil {
		clear(f.ev.args)
		eventPool.Put(f.ev)
		f.ev = nil
	}
	if f.lastID != 0 {
		// Each stripe sees only every 64th frame, so the per-stripe smoothing
		// factor is raised to keep the *merged* signal's time constant at ~20
		// frames: alpha = 1 - (1-0.05)^64 ≈ 0.96. A single stripe is noisy,
		// but RecentLatency averages 64 of them.
		f.r.ewma.ObserveAt(f.lastID, f.last.Sub(f.start)/time.Duration(f.ran), 0.96)
		f.lastID = 0
	}
}

// Run executes the frame's next event: it reads the target's admission (its
// sequencing point, the dominator, and the path below it) and drives
// Algorithm 2 — dominator activation, path activation down to the target,
// execution, release — when this process embodies the server hosting it.
// host is that server as seen once the event was admitted (zero if the event
// failed before routing), for senders' route repair. When another process
// embodies host, nothing ran: Run reports local == false and the caller
// forwards (a node regroups such events into one sub-frame per host), so the
// locality decision is made here and nowhere else.
func (f *Frame) Run(target ownership.ID, method string, args []schema.Value) (res schema.Value, host cluster.ServerID, local bool, err error) {
	r := f.r
	tc, err := r.Context(target)
	if err != nil && !f.caughtUp && r.repl != nil && errors.Is(err, ErrUnknownContext) {
		// The target may have been created on another node moments ago and
		// the notify hint not arrived yet (or the sender knows it from a
		// mutation whose sequence it did not carry): pull the mutation log
		// once per frame and retry before failing the event.
		f.caughtUp = true
		if r.repl.CatchUp() == nil {
			tc, err = r.Context(target)
		}
	}
	if err != nil {
		return res, 0, true, err
	}
	m := tc.class.Method(method)
	if m == nil {
		return res, 0, true, fmt.Errorf("%s.%s: %w", tc.class.Name(), method, ErrUnknownMethod)
	}
	a, err := r.admission(tc)
	if err != nil {
		return res, 0, true, err
	}
	host, ok := r.dir.routeOf(a.dom)
	if !ok {
		return res, 0, true, fmt.Errorf("%v: %w", a.dom.id, ErrUnknownContext)
	}
	// Multi-process mode: events execute on the process embodying the server
	// that hosts their sequencing point, never against this process's
	// non-authoritative state replica.
	if r.isLocal != nil && !r.isLocal(host) {
		return res, host, false, nil
	}
	mode := EX
	if m.ReadOnly {
		mode = RO
	}
	if f.ev == nil {
		f.ev = eventPool.Get().(*event)
	}
	ev := f.ev
	ev.reset(r.eventSeq.Add(1), mode, target, method)
	res, host, local, err = r.executeEvent(ev, tc, a, m, args, host, f.asSub)
	if local {
		f.close(ev.id)
		r.launchSubs(ev)
	}
	// executeEvent joined every async call and the subs are launched, so
	// nothing references the event anymore: clear it for the frame's next.
	ev.clear()
	return res, host, local, err
}

// executeEvent drives Algorithm 2 for one event whose dominator a.dom is
// hosted, by the directory read that routed it, on a server this process
// embodies: dominator activation, path activation down to the target,
// execution, then release of everything. It reports local == false, with
// nothing held and nothing run, when the group moved to another process
// while the event waited for admission. A draining runtime refuses the event
// once its dominator is held, unless it is a sub-event (sub).
func (r *Runtime) executeEvent(ev *event, tc *Context, a *admission, m *schema.Method, args []schema.Value, host cluster.ServerID, sub bool) (schema.Value, cluster.ServerID, bool, error) {
	// Make sure everything is released even on error paths; releaseAll is
	// idempotent per held context.
	defer ev.releaseAll()

	// Client request travels to the dominator's host (ACT message).
	if r.cfg.ChargeClientHops {
		if _, err := r.routeHop(transport.ClientNode, a.dom, true); err != nil {
			return schema.Value{}, host, true, err
		}
	}
	if err := r.acquireCtx(ev, a.dom); err != nil {
		return schema.Value{}, host, true, err
	}
	// Refused here, not before the dominator is held: an event that got past
	// this check holds it until it ends, so Drain's pass over the activations
	// (and a checkpoint's shared one) orders it wholly before, never after.
	if r.draining.Load() && !sub {
		return schema.Value{}, host, true, ErrClosed
	}
	if ev.mode == EX && !r.wrote.Load() {
		r.wrote.Store(true)
	}
	// Re-check locality now that admission succeeded: an event that queued
	// behind a migration's stop window wakes up *after* the group moved, and
	// by then the authoritative state lives on another node. The directory
	// was remapped before the stop released (RehostBatch under the group
	// lock, which bumps the directory generation before it returns), so this
	// read is guaranteed to see the move.
	if r.isLocal != nil {
		if cur, ok := r.dir.routeOf(a.dom); ok && cur != host {
			if host = cur; !r.isLocal(host) {
				return schema.Value{}, host, false, nil
			}
		}
	}

	cur, err := r.activatePath(ev, a.path, host, true)
	if err != nil {
		return schema.Value{}, host, true, err
	}
	res, err := r.invoke(ev, tc, m, cur, args)
	// The event terminates only when all its asynchronous calls have; all
	// activations release at termination, *before* the reply travels back
	// (the deferred releaseAll above is an idempotent safety net for error
	// paths). Its sub-events count as in flight from before the release, so
	// Drain, once it has waited the event out, waits for them too.
	ev.asyncWG.Wait()
	if len(ev.subs) > 0 {
		r.subWG.Add(len(ev.subs))
	}
	ev.releaseAll()

	// Reply to the client from the target's host. The result leaves unboxed:
	// only an edge that must return `any`, like Runtime.Submit, boxes it.
	if r.cfg.ChargeClientHops {
		_ = r.cluster.Net().Hop(cur, transport.ClientNode, r.cfg.MessageBytes)
	}
	return res, host, true, err
}

// activatePath escorts ev from its activated dominator (on server from) down
// its admission path (Algorithm 2, activatePath), charging each EXEC hop when
// charge is set. It returns the target's host.
func (r *Runtime) activatePath(ev *event, path []*Context, from cluster.ServerID, charge bool) (cluster.ServerID, error) {
	for _, c := range path {
		var err error
		if from, err = r.routeHop(from, c, charge); err != nil {
			return 0, err
		}
		if err := r.acquireCtx(ev, c); err != nil {
			return 0, err
		}
	}
	return from, nil
}

// routeHop routes a message from `from` — a server, or
// transport.ClientNode — to context c and returns c's host. A hop is charged
// when a message is sent, that is between two servers, and goes by the
// context's previous server while the sender's map may still point there
// (§ 5.2); a caller already on c's host sends none and has no route to be
// stale about. When charge is false only routing is performed.
func (r *Runtime) routeHop(from transport.NodeID, c *Context, charge bool) (cluster.ServerID, error) {
	host, ok := r.dir.routeOf(c)
	if ok && (!charge || from == host) {
		return host, nil
	}
	host, via, forwarded, ok := r.dir.Route(c.id)
	if !ok {
		return 0, fmt.Errorf("%v: %w", c.id, ErrUnknownContext)
	}
	net := r.cluster.Net()
	var err error
	if forwarded && via != host {
		if err = net.Hop(from, via, r.cfg.MessageBytes); err == nil {
			err = net.Hop(via, host, r.cfg.MessageBytes)
		}
	} else if from != host {
		err = net.Hop(from, host, r.cfg.MessageBytes)
	}
	return host, err
}

// acquireCtx activates a context for an event (enqueue + wait, per
// Algorithm 2) and records the hold for reverse-order release.
func (r *Runtime) acquireCtx(ev *event, c *Context) error {
	first, waited, err := c.lock.acquire(ev.id, ev.mode, r.cfg.AcquireTimeout)
	if waited > 0 {
		r.ActivationWaits.Inc()
		r.ActivationWait.Record(waited)
	}
	if err != nil {
		return fmt.Errorf("activate %v for event %d: %w", c.id, ev.id, err)
	}
	if first && !ev.recordHold(c) {
		// A concurrent same-event acquisition recorded it already; drop the
		// duplicate hold.
		c.lock.release(ev.id)
	}
	return nil
}

// invoke runs one method call on a context the event has activated on host.
func (r *Runtime) invoke(ev *event, c *Context, m *schema.Method, host cluster.ServerID, args []schema.Value) (schema.Value, error) {
	if ev.mode == RO && !m.ReadOnly {
		return schema.Value{}, fmt.Errorf("%s.%s in event %d: %w", c.class.Name(), m.Name, ev.id, ErrReadOnlyEvent)
	}
	if m.Handler == nil {
		return schema.Value{}, fmt.Errorf("%s.%s: %w", c.class.Name(), m.Name, ErrUnknownMethod)
	}
	// Simulated CPU burns on the hosting server.
	if m.Cost > 0 {
		if server, ok := r.cluster.Server(host); ok {
			server.Work(m.Cost)
		}
	}
	// Two handlers can only meet on one context inside a forked event, and
	// only on contexts invoked after the fork: the frames already on the
	// stack own the forking context, so by acyclicity no branch reaches them.
	if ev.forked && !m.ReadOnly {
		c.runMu.Lock()
		defer c.runMu.Unlock()
	}
	env := ev.pushFrame()
	env.rt, env.ev, env.ctx, env.method, env.host = r, ev, c, m, host
	res, err := m.Handler(env, args)
	ev.popFrame(env)
	// Crab: release this context as soon as its handler returns (§ 6.1.2),
	// letting the next event enter while our asynchronous tail call runs
	// below the crabbed child.
	if ev.markCrabReleasable(c.id) {
		c.lock.release(ev.id)
	}
	return res, err
}

// launchSubs starts the sub-events dispatched within a completed event
// (§ 3: they execute after their creator finishes). Each sub-event runs on
// the executor pool of the server hosting its target; when that queue is
// full the sub-event runs inline on this goroutine instead — dispatched
// work is never dropped, and the producer pays the cost (backpressure).
// executeEvent counted them in subWG.
func (r *Runtime) launchSubs(ev *event) {
	for _, s := range ev.subs {
		task := func() {
			defer r.subWG.Done()
			f := r.BeginFrame()
			f.asSub = true
			if _, err := f.runOne(s.target, s.method, s.args); err != nil {
				r.SubEventErrors.Inc()
			}
		}
		if err := r.exec.trySubmit(r.execServer(s.target), task); err != nil {
			if err == ErrBackpressure {
				r.Backpressure.Inc()
			}
			task()
		}
	}
}

// Completed returns how many events have completed: each records exactly one
// latency sample, so it is the latency histogram's count.
func (r *Runtime) Completed() uint64 { return r.Latency.Count() }

// RecentLatency returns an exponentially weighted moving average of event
// latency — the signal the eManager's SLA policy consumes (§ 6.2). Each frame
// observes its mean event latency once (Frame.End) into a stripe hashed from
// its last event ID; the merged view is the mean of the occupied stripes
// (the hash spreads frames uniformly, so stripes are equally weighted).
func (r *Runtime) RecentLatency() time.Duration {
	return r.ewma.Value()
}

// LockForMigration exclusively activates a context as the paper's migratec
// pseudo-event: it waits in the context's queue until running events drain,
// then holds it so state can be transferred. The returned release function
// reopens the context.
func (r *Runtime) LockForMigration(id ownership.ID) (func(), error) {
	return r.LockForMigrationTimeout(id, 0)
}

// LockForMigrationTimeout is LockForMigration with a bounded wait: when
// timeout is positive and the context's queue does not drain in time, it
// returns ErrAcquireTimeout with the context unlocked and reopened. The
// migration engine uses this to preempt group stop attempts that collide
// with in-flight multi-context events instead of deadlocking against them.
func (r *Runtime) LockForMigrationTimeout(id ownership.ID, timeout time.Duration) (func(), error) {
	c, err := r.Context(id)
	if err != nil {
		return nil, err
	}
	eventID := r.eventSeq.Add(1) // the migratec pseudo-event
	if _, _, err := c.lock.acquire(eventID, EX, timeout); err != nil {
		return nil, err
	}
	var once sync.Once
	return func() { once.Do(func() { c.lock.release(eventID) }) }, nil
}

// LockGroupForMigration exclusively activates every context of a migration
// group as one compound migratec pseudo-event: the group's stop window. The
// caller must pass ids in top-down ownership order (root before descendants)
// so the acquisition order matches event path activation. Unlike the
// one-context-at-a-time protocol, holding several members simultaneously can
// cycle with an event that asynchronously activates multiple children, so
// every member after the first is acquired with the given per-member timeout
// (zero blocks indefinitely): on a timeout everything acquired by this call
// is released and ErrAcquireTimeout is returned, and the caller retries
// after a backoff — deadlock avoidance by preemption. Concurrent group locks
// never contend with each other because the migration engine only admits
// disjoint groups. The returned release reopens every member (idempotent);
// on error, nothing acquired by this call stays held.
func (r *Runtime) LockGroupForMigration(ids []ownership.ID, memberTimeout time.Duration) (func(), error) {
	releases := make([]func(), 0, len(ids))
	releaseAll := func() {
		// Reopen in reverse acquisition order (children before root).
		for i := len(releases) - 1; i >= 0; i-- {
			releases[i]()
		}
	}
	for i, id := range ids {
		timeout := memberTimeout
		if i == 0 {
			// The first member is acquired while holding nothing, which can
			// never cycle: wait it out.
			timeout = 0
		}
		rel, err := r.LockForMigrationTimeout(id, timeout)
		if err != nil {
			releaseAll()
			return nil, fmt.Errorf("group stop %v: %w", id, err)
		}
		releases = append(releases, rel)
	}
	var once sync.Once
	return func() { once.Do(releaseAll) }, nil
}

// RehostBatch moves a whole migration group to one server: a single
// directory update (one staleness epoch via Directory.MoveBatch) plus bulk
// hosted-counter accounting. On a server that hosts the group the caller
// holds every member via LockGroupForMigration; a replicated move applied
// elsewhere needs no lock, since no event runs on the group there. Members
// already on the destination are counted as no-ops.
func (r *Runtime) RehostBatch(ids []ownership.ID, to cluster.ServerID) error {
	dst, ok := r.cluster.Server(to)
	if !ok {
		return fmt.Errorf("rehost %v: %w", to, cluster.ErrNoSuchServer)
	}
	// Tally departures per source server before the batch move.
	departed := make(map[cluster.ServerID]int)
	moved := 0
	for _, id := range ids {
		from, ok := r.dir.Locate(id)
		if !ok {
			return fmt.Errorf("%v: %w", id, ErrUnknownContext)
		}
		if from != to {
			departed[from]++
			moved++
		}
	}
	if err := r.dir.MoveBatch(ids, to); err != nil {
		return err
	}
	for from, n := range departed {
		if s, ok := r.cluster.Server(from); ok {
			s.AddHosted(-n)
		}
	}
	dst.AddHosted(moved)
	return nil
}
