// Package ingress is the client SDK for submitting events to an AEON
// deployment from outside the fleet: a Client attaches to the transport mesh
// as a non-serving endpoint, speaks the node wire protocol's hot submit
// frames, and calls nodes the way nodes call each other — through its
// endpoint, which on a TCP mesh keeps one multiplexed connection per node
// and pipelines every in-flight submit on it.
//
// Routing. Events execute on the node embodying the server that hosts their
// dominator. The client does not know placements a priori: it routes each
// target to its cached node (falling back to a default node round-robin for
// unseen targets) and repairs the cache from the authoritative Host field
// every submit response carries — exactly the stale-directory repair peer
// nodes use (§ 5.2). A stale route costs one server-side forwarding hop,
// never a failure, and the very next submit for that target goes direct.
//
// Backpressure. Submits to one node share its connection's in-flight window
// (transport.MuxWindow); when it fills, Submit blocks until a slot frees or
// the call timeout expires. Go (the async variant) additionally bounds the
// client's total in-flight futures by Config.Window so a producer that never
// waits cannot spawn unbounded goroutines.
//
// Batching. SubmitBatch ships many events per frame (see batch.go), and Go's
// futures transparently coalesce onto the same batch frames — each waits for
// batchmates only while a frame of its coalescer is in flight — so high-rate
// async producers pay the per-event wakeup once per batch, not once per
// event, and an idle client pays no wait at all. Failures stay per-event.
package ingress

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/metrics"
	"aeon/internal/node"
	"aeon/internal/ops"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// ClientIDBase is the start of the mesh-address range ingress clients
// auto-assign from. Fleet nodes use small IDs (1:1 with server IDs), so the
// ranges cannot collide in any realistic deployment.
const ClientIDBase transport.NodeID = 1 << 16

var nextClientID atomic.Int64

// callTimeout bounds each submit; linger bounds how long Go holds an event
// behind a frame of its coalescer in flight to the same node (see batch.go).
const (
	callTimeout = 10 * time.Second
	linger      = 100 * time.Microsecond
)

// ErrClientClosed is returned by calls on a closed Client.
var ErrClientClosed = errors.New("ingress: client closed")

// Config describes one ingress client.
type Config struct {
	// ID is the client's mesh address. Zero auto-assigns from ClientIDBase.
	ID transport.NodeID
	// Nodes lists the fleet's mesh addresses. Targets with no cached route
	// are submitted round-robin across these (the response repairs the
	// cache). Required.
	Nodes []transport.NodeID
	// Window bounds in-flight futures from Go. Zero means 256.
	Window int
	// MaxBatch caps events per batch frame: SubmitBatch chunks larger
	// inputs and the coalescer flushes at once when a batch fills. Zero means
	// 128; values above schema.MaxBatchEvents are clamped.
	MaxBatch int
	// NoCoalesce makes Go submit each event as its own frame (no linger,
	// no batching) instead of riding the per-node coalescer. SubmitBatch
	// still batches.
	NoCoalesce bool
	// Trace stamps submit and batch frames with a fresh 8-byte trace ID
	// (client ID in the high bits, a per-client sequence in the low).
	// Nodes propagate the ID across forwarding hops and surface per-hop
	// span records on their /events feed. Costs one varint per frame.
	Trace bool
	// TraceSample, when > 1, mints a trace ID on every Nth frame instead
	// of all of them: sampled-out frames carry trace 0, which the nodes'
	// span path treats as untraced (no event-ring mutex, no fields map).
	// Always-on tracing costs ~15–25% of ingress throughput at
	// saturation, so soaks and production-shaped runs trace sampled.
	// Ignored unless Trace is set; <= 1 means every frame.
	TraceSample int
}

// Client submits events to an AEON deployment over the mesh.
type Client struct {
	cfg Config
	ep  transport.Endpoint

	// routes caches target → node placement, repaired from authoritative
	// submit responses. Read on every event and written only when a route
	// is learned or moves, so a plain map under a read lock: SubmitBatch
	// takes the lock once per call, not per event.
	routeMu sync.RWMutex
	routes  map[ownership.ID]transport.NodeID

	// coals holds the per-node coalescers Go's futures ride; nil once the
	// client closes. flushers counts their flusher goroutines, which Close
	// waits for.
	coalMu   sync.Mutex
	coals    map[transport.NodeID]*coalescer
	flushers sync.WaitGroup

	rr     atomic.Uint64 // round-robin cursor over cfg.Nodes
	window chan struct{} // Go's in-flight bound

	traceSeq atomic.Uint64 // per-client trace-ID sequence (Config.Trace)

	// Coalescer accounting: why batches flushed, how full they were, and
	// how long each one's oldest event was held.
	flushIdle   atomic.Uint64 // wire idle, or the frame in flight returned
	flushFill   atomic.Uint64 // batch reached MaxBatch
	flushLinger atomic.Uint64 // linger elapsed behind a frame in flight
	flushClose  atomic.Uint64 // client closed with events pending
	coalFlushes atomic.Uint64 // coalesced batches shipped
	coalEvents  atomic.Uint64 // events those batches carried
	hold        metrics.Histogram

	closed atomic.Bool
}

// CoalescerStats reports why coalesced batches flushed and how full they
// were. FillRatio is mean batch occupancy relative to MaxBatch.
type CoalescerStats struct {
	FlushIdle   uint64
	FlushFill   uint64
	FlushLinger uint64
	FlushClose  uint64
	Flushes     uint64
	Events      uint64
	MaxBatch    int
}

// FillRatio returns mean events-per-flush divided by MaxBatch (0 when no
// batch has flushed yet).
func (s CoalescerStats) FillRatio() float64 {
	if s.Flushes == 0 || s.MaxBatch == 0 {
		return 0
	}
	return float64(s.Events) / float64(s.Flushes) / float64(s.MaxBatch)
}

// CoalescerStats snapshots the client's coalescer accounting.
func (c *Client) CoalescerStats() CoalescerStats {
	return CoalescerStats{
		FlushIdle:   c.flushIdle.Load(),
		FlushFill:   c.flushFill.Load(),
		FlushLinger: c.flushLinger.Load(),
		FlushClose:  c.flushClose.Load(),
		Flushes:     c.coalFlushes.Load(),
		Events:      c.coalEvents.Load(),
		MaxBatch:    c.cfg.MaxBatch,
	}
}

// nextTrace mints a frame trace ID, or 0 when tracing is off or the frame
// is sampled out. The sequence advances on every traced-eligible frame, so
// a sample rate of N traces exactly one frame in N.
func (c *Client) nextTrace() uint64 {
	if !c.cfg.Trace {
		return 0
	}
	seq := c.traceSeq.Add(1)
	if c.cfg.TraceSample > 1 && seq%uint64(c.cfg.TraceSample) != 0 {
		return 0
	}
	return uint64(c.ep.ID())<<32 | (seq & 0xffffffff)
}

// Dial attaches a client to the mesh. The client endpoint never serves
// requests; peers that call it get an error.
func Dial(mesh transport.Mesh, cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("ingress: Config.Nodes is required")
	}
	if cfg.ID == 0 {
		cfg.ID = ClientIDBase + transport.NodeID(nextClientID.Add(1))
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 128
	}
	if cfg.MaxBatch > schema.MaxBatchEvents {
		cfg.MaxBatch = schema.MaxBatchEvents
	}
	ep, err := mesh.Attach(cfg.ID, func(ctx context.Context, from transport.NodeID, req transport.Message) (transport.Message, error) {
		return transport.Message{}, fmt.Errorf("ingress client %v does not serve requests", cfg.ID)
	})
	if err != nil {
		return nil, fmt.Errorf("ingress: attach client %v: %w", cfg.ID, err)
	}
	return &Client{
		cfg:    cfg,
		ep:     ep,
		routes: make(map[ownership.ID]transport.NodeID),
		coals:  make(map[transport.NodeID]*coalescer),
		window: make(chan struct{}, cfg.Window),
	}, nil
}

// Close detaches the client and closes its connections. In-flight submits
// fail; coalesced futures not yet flushed resolve with ErrClientClosed.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.coalMu.Lock()
	coals := c.coals
	c.coals = nil
	c.coalMu.Unlock()
	for _, co := range coals {
		co.close()
	}
	err := c.ep.Close() // fails the frames in flight, so every flusher returns
	c.flushers.Wait()
	return err
}

// route picks the node for a target: the cached placement when one is known
// (cached reports that), otherwise round-robin over the configured fleet.
func (c *Client) route(target ownership.ID) (to transport.NodeID, cached bool) {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	return c.routeLocked(target)
}

// routeLocked is route for callers holding routeMu.
func (c *Client) routeLocked(target ownership.ID) (transport.NodeID, bool) {
	if to, ok := c.routes[target]; ok {
		return to, true
	}
	return c.cfg.Nodes[c.rr.Add(1)%uint64(len(c.cfg.Nodes))], false
}

// learn repairs the routing cache from a response's authoritative host,
// given where the event was sent and whether the cache said so: a response
// confirming the cached route — nearly every one in a steady fleet — costs
// no lookup at all. Fleet deployments map servers to nodes 1:1, so the
// wire's ServerID is the node address.
func (c *Client) learn(target ownership.ID, sentTo transport.NodeID, cached bool, host int64) {
	if host == 0 || (cached && transport.NodeID(host) == sentTo) {
		return
	}
	c.routeMu.Lock()
	c.routes[target] = transport.NodeID(host)
	c.routeMu.Unlock()
}

// Route reports the cached placement of a target (for tests and benchmark/).
func (c *Client) Route(target ownership.ID) (transport.NodeID, bool) {
	c.routeMu.RLock()
	defer c.routeMu.RUnlock()
	to, ok := c.routes[target]
	return to, ok
}

// Submit executes one event on the deployment and returns its result.
// Concurrent Submits from many goroutines pipeline onto the endpoint's
// per-node connections.
func (c *Client) Submit(target ownership.ID, method string, args ...any) (any, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	req := schema.SubmitReq{Target: target, Method: method, Args: args, Trace: c.nextTrace()}
	buf := schema.GetFrameBuf()
	payload, err := req.MarshalWire((*buf)[:0])
	if err != nil {
		schema.PutFrameBuf(buf)
		return nil, fmt.Errorf("ingress: encode submit: %w", err)
	}
	*buf = payload

	to, cached := c.route(target)
	ctx := transport.NewDeadline(callTimeout)
	defer ctx.Release()
	raw, err := c.ep.Call(ctx, to, transport.Message{Kind: node.KindSubmit, Payload: payload})
	schema.PutFrameBuf(buf) // endpoints do not retain payloads past Call
	if err != nil {
		return nil, fmt.Errorf("ingress: submit %v to %v: %w", target, to, err)
	}

	var resp schema.SubmitResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		return nil, fmt.Errorf("ingress: decode submit response: %w", err)
	}
	// Repair the routing cache even on failures — the authoritative host is
	// exactly what a mis-routed submit needs.
	c.learn(target, to, cached, resp.Host)
	if resp.Code != schema.CodeOK {
		return nil, schema.Err(resp.Code, resp.Err)
	}
	return resp.Result, nil
}

// Future is an in-flight asynchronous submit.
type Future struct {
	done   chan struct{}
	result any
	err    error
}

// Wait blocks until the submit completes.
func (f *Future) Wait() (any, error) {
	<-f.done
	return f.result, f.err
}

// Go submits asynchronously: it returns once the request occupies an
// in-flight slot (blocking when Config.Window submits are already pending —
// backpressure for producers that batch Waits). The returned Future resolves
// when the response arrives. Unless NoCoalesce is set, the event rides the
// per-node coalescer: on an idle wire it is sent at once, together with
// whatever else the caller issues before yielding; while one of the
// coalescer's frames is in flight to that node it waits for batchmates until
// that frame returns (at most linger), then the whole batch flies as
// one frame.
func (c *Client) Go(target ownership.ID, method string, args ...any) *Future {
	f := &Future{done: make(chan struct{})}
	if c.closed.Load() {
		f.err = ErrClientClosed
		close(f.done)
		return f
	}
	c.window <- struct{}{}
	if c.cfg.NoCoalesce {
		go func() {
			defer close(f.done)
			defer func() { <-c.window }()
			f.result, f.err = c.Submit(target, method, args...)
		}()
		return f
	}
	to, cached := c.route(target)
	co := c.coalescerFor(to)
	if co == nil { // closed between the check above and here
		c.resolve(f, nil, ErrClientClosed)
		return f
	}
	co.add(BatchItem{Target: target, Method: method, Args: args}, cached, f)
	return f
}

// RegisterOps registers the client's coalescer accounting on an ops
// registry (typically the registry of the process embedding the client, so
// one /metrics scrape covers both sides of the ingress path).
func (c *Client) RegisterOps(reg *ops.Registry) {
	lbl := ops.Labels{"client": fmt.Sprint(int64(c.ep.ID()))}
	reg.Counter("aeon_ingress_flush_idle_total",
		"Coalesced batches flushed because the wire was idle or the frame in flight returned.", lbl, c.flushIdle.Load)
	reg.Counter("aeon_ingress_flush_fill_total",
		"Coalesced batches flushed because they reached MaxBatch.", lbl, c.flushFill.Load)
	reg.Counter("aeon_ingress_flush_linger_total",
		"Coalesced batches flushed because the linger elapsed behind a frame in flight.", lbl, c.flushLinger.Load)
	reg.Counter("aeon_ingress_flush_close_total",
		"Coalescers drained by Close with events still pending.", lbl, c.flushClose.Load)
	reg.Counter("aeon_ingress_coalesced_events_total",
		"Events shipped through the coalescer.", lbl, c.coalEvents.Load)
	reg.Histogram("aeon_ingress_hold_seconds",
		"How long a coalesced batch's oldest event waited in the coalescer.", lbl, &c.hold)
	reg.Gauge("aeon_ingress_coalescer_fill_ratio",
		"Mean coalesced batch occupancy relative to MaxBatch.", lbl,
		func() float64 { return c.CoalescerStats().FillRatio() })
}
