// Package node implements AEON's distributed node runtime: it wraps one
// process's server-slice of the system and attaches it to a transport.Mesh,
// so N AEON servers run as N OS processes exchanging wire frames instead of
// sharing an address space.
//
// Deployment model. Every node process builds the same cluster topology and
// the same ownership network (deterministic construction from a shared
// workload spec — identical creation order yields identical context IDs),
// but each process *embodies* only its own server(s): context state is
// authoritative only on the node hosting the context, and events execute on
// the node embodying the server that hosts their sequencing point (the
// dominator). The remaining replicas are routing metadata — exactly the
// paper's split between the authoritative context mapping in cloud storage
// and the cached mapping on every host (§ 5.1).
//
// Wire protocol (see schema/kinds.go): client submit and cross-node event
// forwarding (placement resolved against the local directory snapshot;
// misses forward along the directory's answer, stale callers pay the
// forwarding hop of § 5.2 and repair their cache from the response), remote
// cloud-store access (one node serves Get/Put/PutBatch/CAS/List to the
// others, so every process journals into one authoritative store), and
// migration state transfer (the engine's step IV ships serialized member
// state to the destination node instead of relying on a shared registry).
//
// Dynamic topologies: with Config.Replicate, structural mutations —
// runtime context creation (Call.NewContext), edge changes, context
// destruction, server membership — are sequenced through the replicated
// ownership-metadata control plane (internal/replication): a CAS-appended
// mutation log in the authoritative cloud store that every node tails and
// applies in order, with a node.replicate.notify frame as the steady-state
// propagation hint. Log order assigns context IDs, so a context created at
// runtime on one node is immediately submittable from every other; submits
// carry the sender's applied log sequence and the receiver blocks on that
// sequence before admission, so a lagging replica can never reject a
// freshly created target.
package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/emanager"
	"aeon/internal/metrics"
	"aeon/internal/ops"
	"aeon/internal/ownership"
	"aeon/internal/replication"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Config describes one node process.
type Config struct {
	// ID is the node's mesh address. The node embodies the server with the
	// same ID (ServerID and transport.NodeID are the same type): one node
	// per server.
	ID transport.NodeID
	// Runtime is the node's runtime over the replicated topology. Start
	// installs the multi-process hooks on it (Runtime.SetRemote).
	Runtime *core.Runtime
	// LocalStore is this process's in-memory cloud store. Required on the
	// store node (it becomes the authoritative store every peer reaches
	// over the mesh); ignored elsewhere unless StoreNode is zero.
	LocalStore *cloudstore.Store
	// StoreNode is the node serving the authoritative cloud store. Zero
	// means this node uses its LocalStore directly (single-node or test
	// deployments). Ignored when StoreReplicas is set.
	StoreNode transport.NodeID
	// StoreReplicas, when set, replaces the single-store deployment with the
	// sharded, replicated store plane: partition i of the keyspace is served
	// by StoreReplicas[i]'s replica set (primary first), each replica a mesh
	// address — usually a dedicated store-server process (ServeStore), but a
	// node's own ID works too and routes to its LocalStore. The node's store
	// handle becomes a Partitioned client over per-partition Replicated
	// clients with CAS-fenced failover. Every node of a deployment must be
	// configured with the same partition list, in the same order.
	StoreReplicas []StorePartition
	// Manager configures the node's elasticity manager; its migration
	// engine is wired to transfer state over the mesh automatically.
	Manager emanager.Config
	// Replicate sequences structural mutations (runtime context creation,
	// edge changes, server membership) through the replicated mutation log
	// in the authoritative cloud store, making dynamic topologies work
	// across processes. Off, mutations stay process-local (static
	// topologies only, the pre-replication behavior).
	Replicate bool
	// Peers lists the mesh nodes of the deployment (this node included or
	// not — it is skipped either way); replicate-notify hints go to them.
	// Empty falls back to deriving peers from the cluster's server set via
	// the 1:1 node-per-server mapping — correct until a replicated
	// scale-out adds a server no process embodies, so deployments that
	// scale at runtime should set it.
	Peers []transport.NodeID
	// Ops, when set, is the process-wide observability registry: Start
	// registers the node's and every wired subsystem's metrics and
	// readiness checks on it, and the node emits structural events
	// (migrations, fence advances, backpressure, route repairs, trace
	// spans) into its ring. Nil disables the ops plane — the hot path pays
	// nothing either way.
	Ops *ops.Registry
}

// A node's bounds: forwarding hops per submit chain; a mesh call (submit
// forwards, store ops); a state transfer or commanded migration, which moves
// real bytes through protocol windows; a submit's wait for the local
// replica to reach the sender's log sequence, after which it fails with
// replication.ErrReplicaLagging; and how long after installing a transfer
// Close waits for its move record.
const (
	maxHops         = 4
	callTimeout     = 10 * time.Second
	transferTimeout = 60 * time.Second
	replicaLagWait  = 5 * time.Second
	installWait     = 2 * time.Second
)

// StorePartition names the replica set serving one keyspace partition of
// the store plane (primary first; failover promotes in list order).
type StorePartition struct {
	Replicas []transport.NodeID
}

// Node is one process's attachment to the AEON deployment.
type Node struct {
	cfg         Config
	id          transport.NodeID
	rt          *core.Runtime
	servesStore bool

	// baseCtx parents every RemoteStore call so node shutdown cancels
	// in-flight store ops instead of letting failover retries stack dead
	// calls behind callTimeout.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	ep    transport.Endpoint
	mgr   *emanager.Manager
	store cloudstore.API
	plane *replication.Plane

	// forwarded counts events this node forwarded to another node;
	// executed counts peer-submitted events it executed locally; batches
	// counts submit frames it handled (a frame of one included);
	// batchEvents counts the events those frames carried.
	forwarded, executed, batches, batchEvents, transfersIn, transfersOut atomic.Uint64
	// errs counts failed outcomes by code (aeon_errors_total); only failure
	// branches touch it.
	errs [schema.NumCodes]atomic.Uint64

	// ops is the process observability registry (Config.Ops; nil = off).
	// submitLat/forwardLat/batchLat are per-frame handler latency histograms,
	// recorded lock-free on the hot path and merged on scrape; storeLat is
	// the round trip of every op this node's RemoteStores send. Each is one
	// word until its first record.
	ops        *ops.Registry
	submitLat  metrics.Histogram
	forwardLat metrics.Histogram
	batchLat   metrics.Histogram
	storeLat   metrics.Histogram

	shutdownOnce sync.Once
	shutdownCh   chan struct{}

	closeOnce sync.Once

	// installs holds when each group member a transfer installed here was
	// installed, until the replica places the member here (log mode only).
	installMu sync.Mutex
	installs  map[ownership.ID]time.Time
}

// Start attaches a node to the mesh: it wires the runtime's multi-process
// hooks, builds the store handle (local on the store node, RemoteStore over
// the mesh elsewhere), and creates the node's elasticity manager with
// mesh-based migration state transfer. The node serves peer requests as
// soon as Start returns.
func Start(mesh transport.Mesh, cfg Config) (*Node, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("node %v: runtime is required", cfg.ID)
	}
	n := &Node{
		cfg:        cfg,
		id:         cfg.ID,
		rt:         cfg.Runtime,
		shutdownCh: make(chan struct{}),
		installs:   make(map[ownership.ID]time.Time),
	}
	n.baseCtx, n.baseCancel = context.WithCancel(context.Background())

	// Wire the node fully before it can serve a single frame: a peer whose
	// ping raced ahead must never reach an unconfigured manager, store, or
	// runtime. Only the endpoint itself is pending when Attach runs, so the
	// handler gates on `ready` until it is recorded.
	if len(cfg.StoreReplicas) > 0 {
		// Sharded, replicated store plane: one Replicated client per
		// partition (failing over across its replica set), routed by a
		// Partitioned client. A replica naming this node serves from
		// LocalStore without a mesh hop.
		parts := make([]cloudstore.Doer, 0, len(cfg.StoreReplicas))
		for i, sp := range cfg.StoreReplicas {
			if len(sp.Replicas) == 0 {
				return nil, fmt.Errorf("node %v: store partition %d has no replicas", cfg.ID, i)
			}
			replicas := make([]cloudstore.Doer, 0, len(sp.Replicas))
			for _, rep := range sp.Replicas {
				if rep == cfg.ID {
					if cfg.LocalStore == nil {
						return nil, fmt.Errorf("node %v: named as store replica but has no LocalStore", cfg.ID)
					}
					replicas = append(replicas, cfg.LocalStore)
					n.servesStore = true
					continue
				}
				replicas = append(replicas, n.remoteStore(rep))
			}
			parts = append(parts, cloudstore.NewReplicated(i, replicas...))
		}
		n.store = cloudstore.NewPartitioned(parts...)
	} else if cfg.StoreNode == 0 || cfg.StoreNode == cfg.ID {
		if cfg.LocalStore == nil {
			return nil, fmt.Errorf("node %v: store node needs a LocalStore", cfg.ID)
		}
		n.store = cfg.LocalStore
		n.servesStore = true
	} else {
		n.store = n.remoteStore(cfg.StoreNode)
	}
	if cfg.Replicate {
		// The replicated ownership-metadata control plane: structural
		// mutations captured on this node append to the shared log, and the
		// tailer applies every node's mutations to the local replica.
		n.plane = replication.New(n.rt, n.store, replication.Config{Origin: cfg.ID})
		n.plane.SetNotify(n.notifyReplicated)
		n.rt.SetReplicator(n.plane)
	}
	mgrCfg := cfg.Manager
	mgrCfg.Transfer = n.transferGroup
	if n.plane != nil {
		// Recovery replays WAL and checkpoint records against the
		// replicated graph, so it must catch the replica up first; and
		// policy-driven scale-out/in must mutate membership fleet-wide, not
		// just this node's cluster replica.
		if mgrCfg.SyncReplica == nil {
			mgrCfg.SyncReplica = n.plane.CatchUp
		}
		if mgrCfg.Membership == nil {
			mgrCfg.Membership = n.plane
		}
	}
	n.mgr = emanager.New(n.rt, n.store, mgrCfg)
	n.rt.SetRemote(n.isLocal, n.forward)
	if cfg.Ops != nil {
		n.ops = cfg.Ops
		n.registerOps()
	}

	ready := make(chan struct{})
	ep, err := mesh.Attach(cfg.ID, func(ctx context.Context, from transport.NodeID, req transport.Message) (transport.Message, error) {
		<-ready
		return n.handle(ctx, from, req)
	})
	if err != nil {
		return nil, fmt.Errorf("node %v: attach: %w", cfg.ID, err)
	}
	n.ep = ep
	if err := n.recover(); err != nil {
		_ = n.detach() // the recovery failure is the one to report
		return nil, err
	}
	close(ready)
	return n, nil
}

// recover brings the node back to what it acknowledged before it serves a
// frame: it replays the mutation log it missed, then its server's latest
// checkpoints and its own migration journal (Manager.RecoverServer). Peers
// boot in any order, so it waits, bounded by callTimeout, for the store.
func (n *Node) recover() error {
	start := time.Now()
	var err error
	if n.plane != nil {
		err = n.plane.Start()
	}
	restored := 0
	for {
		if err == nil {
			if restored, err = n.mgr.RecoverServer(cluster.ServerID(n.id)); err == nil {
				break
			}
		}
		if time.Since(start) > callTimeout {
			return fmt.Errorf("node %v: recover: %w", n.id, err)
		}
		time.Sleep(10 * time.Millisecond)
		err = nil
		if n.plane != nil {
			err = n.plane.CatchUp()
		}
	}
	n.emit("node.recover", map[string]any{
		"node": int64(n.id), "contexts": restored, "us": time.Since(start).Microseconds(),
	})
	return nil
}

// ID returns the node's mesh address.
func (n *Node) ID() transport.NodeID { return n.id }

// Runtime returns the node's runtime.
func (n *Node) Runtime() *core.Runtime { return n.rt }

// Store returns the node's view of the authoritative cloud store.
func (n *Node) Store() cloudstore.API { return n.store }

// Plane returns the node's replication plane (nil unless Config.Replicate).
func (n *Node) Plane() *replication.Plane { return n.plane }

// Forwarded returns how many submits this node forwarded to peers.
func (n *Node) Forwarded() uint64 { return n.forwarded.Load() }

// Done is closed when a peer requests shutdown (schema.KindShutdown).
func (n *Node) Done() <-chan struct{} { return n.shutdownCh }

// Close stops the node's manager, drains its runtime and checkpoints its
// server if anything there changed, so a restarted node comes back with
// everything this one acknowledged; then it leaves the mesh. The caller
// closes the runtime.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		start := time.Now()
		n.mgr.Stop()
		n.rt.Drain()
		if n.plane != nil {
			n.awaitMoves()
		}
		// A node that ran no writing event and installed no transferred
		// state holds what its restart rebuilds or restores.
		count, cerr := 0, error(nil)
		if n.rt.Wrote() || n.transfersIn.Load() > 0 {
			count, cerr = n.mgr.CheckpointServer(cluster.ServerID(n.id))
		}
		n.emit("node.checkpoint", map[string]any{
			"node": int64(n.id), "contexts": count, "us": time.Since(start).Microseconds(),
		})
		err = errors.Join(cerr, n.detach())
	})
	return err
}

// detach stops the node's store calls and replication plane and leaves the
// mesh.
func (n *Node) detach() error {
	n.baseCancel()
	if n.plane != nil {
		n.plane.Close()
	}
	return n.ep.Close()
}

// isLocal reports whether this process embodies srv.
func (n *Node) isLocal(srv cluster.ServerID) bool { return srv == cluster.ServerID(n.id) }

// nodeFor maps a server to the mesh address of the node embodying it (the
// 1:1 deployment: same numeric ID).
func (n *Node) nodeFor(srv cluster.ServerID) transport.NodeID {
	return transport.NodeID(srv)
}

// Submit executes one event from this node: locally when this node embodies
// the server hosting the event's sequencing point, otherwise over the mesh.
// It is the multi-process equivalent of Runtime.Submit (and delegates to
// it — the runtime's forwarding hook does the mesh call).
func (n *Node) Submit(target ownership.ID, method string, args ...any) (any, error) {
	return n.rt.Submit(target, method, args...)
}

// Ping checks that a peer is attached and serving.
func (n *Node) Ping(peer transport.NodeID) error {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	_, err := n.ep.Call(ctx, peer, transport.Message{Kind: schema.KindPing})
	return err
}

// Shutdown asks a peer to shut down (its Done channel closes).
func (n *Node) Shutdown(peer transport.NodeID) error {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	_, err := n.ep.Call(ctx, peer, transport.Message{Kind: schema.KindShutdown})
	return err
}

// notifyReplicated is the replication plane's propagation hint: after a
// durable append, tell every peer node the log advanced so their tailers
// pull immediately instead of waiting out a poll interval. Fire-and-forget
// per peer — a lost hint only costs poll latency, never correctness.
func (n *Node) notifyReplicated(seq uint64) {
	// A notify hint fans out on every durable append: it rides the hot codec
	// (a 12-byte frame instead of a gob stream with type metadata).
	rec := schema.NotifyRec{Seq: seq}
	payload, err := rec.MarshalWire(nil)
	if err != nil {
		return
	}
	peers := make(map[transport.NodeID]bool)
	if len(n.cfg.Peers) > 0 {
		for _, p := range n.cfg.Peers {
			if p != n.id {
				peers[p] = true
			}
		}
	} else {
		// 1:1 node-per-server fallback; a replicated scale-out can add a
		// server no process embodies, so configured Peers take precedence.
		for _, s := range n.rt.Cluster().Servers() {
			if !n.isLocal(s.ID()) {
				peers[n.nodeFor(s.ID())] = true
			}
		}
	}
	for peer := range peers {
		go func(peer transport.NodeID) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			// Best-effort: a lost hint costs poll latency, never correctness.
			_, _ = n.ep.Call(ctx, peer, transport.Message{Kind: schema.KindReplicate, Payload: payload})
		}(peer)
	}
}

// replicaSeq reports the local replica's applied log sequence (0 without
// replication), stamped into outgoing submits as the receiver's admission
// floor.
func (n *Node) replicaSeq() uint64 {
	if n.plane == nil {
		return 0
	}
	return n.plane.Applied()
}

// forward is the runtime's multi-process hook: the event's sequencing point
// is hosted on a server another node embodies, so ship the whole event there
// as a frame of one, forwarded like a frame this node received at hop 0. The
// response's authoritative host repairs this node's directory cache when the
// placement moved.
func (n *Node) forward(host cluster.ServerID, target ownership.ID, method string, args []schema.Value) (schema.Value, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	sc.req.Events = append(sc.req.Events, schema.BatchEvent{Target: target, Method: method, Vals: args})
	sc.slots(1)
	sc.forwardTo(host, 0)
	n.forwardBatch(sc)
	if out := &sc.resp.Outcomes[0]; out.Code != schema.CodeOK {
		return schema.Value{}, schema.Err(out.Code, out.Err)
	}
	return sc.results[0], nil
}

// callHot is sendHot from this node, bounded by callTimeout.
func (n *Node) callHot(to transport.NodeID, kind string, encode func(dst []byte) ([]byte, error)) (transport.Message, error) {
	ctx := transport.NewDeadline(callTimeout)
	defer ctx.Release()
	return sendHot(ctx, n.ep, to, kind, encode)
}

// learnPlacement repairs the local directory cache from an authoritative
// placement carried in a submit response. The response's Host is the
// placement of the event's *dominator* — the entry every routing decision
// (ours and our peers') is made on — so only that entry is repaired: the
// target itself may legitimately live on another server (a leaf migrated
// without its subtree), and overwriting its correct entry with the
// dominator's host would corrupt it.
func (n *Node) learnPlacement(target ownership.ID, host cluster.ServerID) {
	if host == 0 {
		return
	}
	dom, _, err := n.rt.Graph().Resolve(target)
	if err != nil {
		return
	}
	dir := n.rt.Directory()
	if cur, ok := dir.Locate(dom); ok && cur != host && !n.isLocal(cur) {
		// Cache repair only — hosted counters track authoritative
		// placements and are maintained by the migration protocol.
		_ = dir.Move(dom, host)
		n.emit("route.repair", map[string]any{
			"node": int64(n.id), "dom": uint64(dom), "from": int64(cur), "to": int64(host),
		})
	}
}

// handle is the node's mesh request handler.
func (n *Node) handle(ctx context.Context, from transport.NodeID, req transport.Message) (transport.Message, error) {
	switch req.Kind {
	case schema.KindPing:
		return ack(schema.KindPing, schema.SubmitResp{Host: int64(n.id)}, nil)
	case schema.KindSubmitBatch:
		sc := batchScratchPool.Get().(*batchScratch)
		defer sc.release()
		if err := sc.req.UnmarshalFrame(req.Payload); err != nil {
			return transport.Message{}, err
		}
		n.handleSubmitBatch(sc)
		// The response outlives the handler, so it goes into a pooled buffer
		// that its last reader releases: the TCP worker once it is sent, an
		// in-memory caller once it has decoded it.
		buf := schema.GetFrameBuf()
		payload, err := sc.resp.MarshalResults(*buf, sc.results)
		*buf = payload
		return transport.PooledMessage(schema.KindSubmitBatch, buf), err
	case schema.KindStore:
		return serveStore(n.handleStore, req.Payload)
	case schema.KindTransfer:
		var rec schema.TransferRec
		if err := rec.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		return ack(schema.KindTransfer, schema.SubmitResp{}, n.handleTransfer(&rec))
	case schema.KindTransferQuery:
		var tq schema.PlaceReq
		if err := tq.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		host, ok := n.rt.Directory().Locate(tq.Context)
		return ack(schema.KindTransferQuery, schema.SubmitResp{Result: ok && int64(host) == tq.Server}, nil)
	case schema.KindMigrate:
		var mr schema.PlaceReq
		if err := mr.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		return ack(schema.KindMigrate, schema.SubmitResp{}, n.handleMigrate(mr.Context, cluster.ServerID(mr.Server)))
	case schema.KindReplicate:
		var nr schema.NotifyRec
		if err := nr.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		if n.plane != nil {
			n.plane.Poke(nr.Seq)
		}
		// The hint is fire-and-forget; an empty ack suffices.
		return transport.Message{Kind: schema.KindReplicate}, nil
	case schema.KindShutdown:
		n.shutdownOnce.Do(func() { close(n.shutdownCh) })
		return transport.Message{Kind: schema.KindShutdown}, nil
	default:
		return transport.Message{}, fmt.Errorf("node %v: unknown frame kind %q", n.id, req.Kind)
	}
}

// admit is the frame-level lag gate both submit handlers charge once: the
// sender's replica had applied minSeq of the mutation log when it routed
// here. Block until ours has too (a target may only exist past that
// sequence), then fail typed if the replica stays behind — never admit
// against a torn view. The caller says what was refused.
func (n *Node) admit(minSeq uint64) error {
	if n.plane == nil || minSeq <= n.plane.Applied() {
		return nil
	}
	err := n.plane.WaitFor(minSeq, replicaLagWait)
	if err != nil {
		n.emit("backpressure.lag", map[string]any{
			"node": int64(n.id), "min_seq": minSeq, "applied": n.plane.Applied(), "err": err.Error(),
		})
	}
	return err
}

// failed renders err as the (code, message) of `events` outcomes and counts
// them under aeon_errors_total. uncoded is the code of an error no layer
// gave one: CodeApp where a handler ran, so the failure is the
// application's; CodeUnknown where a hop failed and nothing says whether the
// peer executed.
func (n *Node) failed(err error, uncoded schema.Code, events int) (schema.Code, string) {
	code := uncoded
	errors.As(err, &code)
	n.errs[code].Add(uint64(events))
	return code, err.Error()
}

// runEvent is the per-event step of a submit frame. The runtime frame
// resolves the event's sequencing point once and executes it when this node
// embodies its host; out then holds the outcome, res its result unboxed, and
// runEvent returns 0. Otherwise our cached mapping says another node hosts
// it: runEvent returns that host for the caller to forward to, or fills out
// with ErrTooManyHops when the frame's hop budget is spent. Placement is
// resolved against the local directory snapshot, so a stale sender pays
// exactly the forwarding hop of the paper's staleness window.
func (n *Node) runEvent(f *core.Frame, hops uint32, target ownership.ID, method string, args []schema.Value, out *schema.BatchOutcome, res *schema.Value) cluster.ServerID {
	// The runtime reports the authoritative placement it admitted the event
	// at (zero if it failed before routing).
	v, host, local, err := f.Run(target, method, args)
	out.Host = int64(host)
	switch {
	case err != nil:
		out.Code, out.Err = n.failed(err, schema.CodeApp, 1)
	case local:
		*res = v
	case hops >= maxHops:
		out.Code, out.Err = n.failed(fmt.Errorf("%v after %d hops: %w", target, hops, ErrTooManyHops), schema.CodeUnknown, 1)
	default:
		return host
	}
	return 0
}

// batchScratch is what handling one submit frame needs and nothing outlives:
// the decode target with its args arena, the outcome and result slots and the
// per-host forward lists. It is pooled — bounded by the mux workers handling
// frames and the events forwarding at once — and cleared on return, so a
// recycled scratch pins no event's arguments or results, and keeps an arena
// of at most 64 KiB (see schema.SubmitBatchReq.UnmarshalFrame).
type batchScratch struct {
	req     schema.SubmitBatchReq
	resp    schema.SubmitBatchResp
	results []schema.Value
	fwd     []hostEvents
	calls   []transport.Call // one per forward list
}

// hostEvents lists, by index into the frame, the events bound for one peer,
// and is the decode target of that peer's response.
type hostEvents struct {
	host    cluster.ServerID
	idxs    []int
	resp    schema.SubmitBatchResp
	results []schema.Value
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) release() {
	sc.req.Reset()
	clear(sc.resp.Outcomes)
	clear(sc.results)
	for _, g := range sc.fwd {
		clear(g.resp.Outcomes)
		clear(g.results)
	}
	sc.fwd = sc.fwd[:0]
	clear(sc.calls)
	sc.calls = sc.calls[:0]
	batchScratchPool.Put(sc)
}

// slots sizes the outcome and result slots to n events; release left them
// zeroed.
func (sc *batchScratch) slots(n int) {
	sc.resp.Outcomes = slices.Grow(sc.resp.Outcomes[:0], n)[:n]
	sc.results = slices.Grow(sc.results[:0], n)[:n]
}

// forwardTo appends event i to host's forward list.
func (sc *batchScratch) forwardTo(host cluster.ServerID, i int) {
	for k := range sc.fwd {
		if sc.fwd[k].host == host {
			sc.fwd[k].idxs = append(sc.fwd[k].idxs, i)
			return
		}
	}
	sc.fwd = slices.Grow(sc.fwd, 1)[:len(sc.fwd)+1] // a recycled list keeps its capacity
	g := &sc.fwd[len(sc.fwd)-1]
	g.host, g.idxs = host, append(g.idxs[:0], i)
}

// handleSubmitBatch executes or forwards the independent events of one
// submit frame, filling sc.resp with one outcome per event of sc.req. A lone
// event is a frame of one, observed as a submit (aeon_node_submit_seconds,
// spans naming its target and method); a larger frame as a batch
// (aeon_node_batch_seconds, batch-* spans counting its events). The
// frame-level costs are charged once — one replication-lag gate, one hop
// budget, one runtime frame (at most one log catch-up, one clock read per
// event boundary, one event record, one latency-EWMA observation), one
// executed-counter add — while every outcome is per-event: a typed failure
// (unknown context, backpressure, hop exhaustion) fills only its own slot.
// Events whose dominators live on peers are regrouped into one frame per
// host, each forwarded outcome carrying the authoritative Host.
func (n *Node) handleSubmitBatch(sc *batchScratch) {
	req := &sc.req
	one := len(req.Events) == 1
	n.batches.Add(1)
	n.batchEvents.Add(uint64(len(req.Events)))
	f := n.rt.BeginFrame()
	start := f.Clock()
	sc.slots(len(req.Events))
	out := sc.resp.Outcomes
	// One lag-aware admission for the whole frame.
	if err := n.admit(req.MinSeq); err != nil {
		code, msg := n.failed(fmt.Errorf("frame of %d events at seq %d: %w", len(out), req.MinSeq, err), schema.CodeUnknown, len(out))
		for i := range out {
			out[i].Code, out[i].Err = code, msg
		}
		if !one {
			n.batchLat.Record(clock.Since(start))
		}
		return
	}
	for i := range req.Events {
		ev := &req.Events[i]
		if host := n.runEvent(&f, req.Hops, ev.Target, ev.Method, ev.Vals, &out[i], &sc.results[i]); host != 0 {
			sc.forwardTo(host, i)
		}
	}
	f.End()
	end := f.Clock()
	if ran := f.Ran(); ran > 0 {
		// One add and one span cover the frame's locally executed slice —
		// per-event spans would multiply the feed by the batch size for no
		// extra structure.
		n.executed.Add(uint64(ran))
		if one {
			n.submitLat.Record(end.Sub(start))
		}
		n.span(req, "execute", ran, end.Sub(start))
	}
	if len(sc.fwd) > 0 {
		n.forwardBatch(sc)
		end = clock.Now()
	}
	if !one {
		n.batchLat.Record(end.Sub(start))
	}
}

// forwardBatch ships the frame's per-host forward lists at Hops+1, under the
// sender's admission floor or this replica's applied sequence if that is
// further along, as one flight from this goroutine — a call per host — and
// fills each list's slots from its response. A list that does not encode, a
// failed call, an undecodable response or one that does not carry exactly one
// outcome per event fails every event of its list as CodeUnknown: nothing
// says whether the peer ran them.
func (n *Node) forwardBatch(sc *batchScratch) {
	req, out, results := &sc.req, sc.resp.Outcomes, sc.results
	sub := schema.SubmitBatchReq{Hops: req.Hops + 1, MinSeq: max(req.MinSeq, n.replicaSeq()), Trace: req.Trace, Events: req.Events}
	fail := func(g *hostEvents, err error) {
		code, msg := n.failed(fmt.Errorf("submit to %v: %w", g.host, err), schema.CodeUnknown, len(g.idxs))
		for _, i := range g.idxs {
			out[i].Code, out[i].Err, out[i].Host = code, msg, int64(g.host)
		}
	}
	for k := 0; k < len(sc.fwd); {
		g := &sc.fwd[k]
		n.forwarded.Add(uint64(len(g.idxs)))
		buf := schema.GetFrameBuf()
		payload, err := sub.MarshalWirePick((*buf)[:0], g.idxs)
		if err != nil {
			schema.PutFrameBuf(buf)
			fail(g, err)
			sc.fwd = slices.Delete(sc.fwd, k, k+1) // keeps the calls index-aligned with the lists
			continue
		}
		*buf = payload
		sc.calls = append(sc.calls, transport.Call{To: n.nodeFor(g.host), Req: transport.PooledMessage(schema.KindSubmitBatch, buf)})
		k++
	}
	ctx := transport.NewDeadline(callTimeout)
	start := clock.Now()
	n.ep.CallBatch(ctx, sc.calls)
	d := clock.Since(start)
	ctx.Release()
	for k, call := range sc.calls {
		g := &sc.fwd[k]
		call.Req.Release() // endpoints do not retain payloads past the call
		n.forwardLat.Record(d)
		n.span(req, "forward", len(g.idxs), d)
		err := call.Err
		if err == nil {
			g.results, err = g.resp.UnmarshalResults(call.Resp.Payload, g.results)
			call.Resp.Release() // the decoded outcomes and results own their bytes
		}
		if err == nil && len(g.resp.Outcomes) != len(g.idxs) {
			err = fmt.Errorf("%d outcomes for %d events", len(g.resp.Outcomes), len(g.idxs))
		}
		if err != nil {
			fail(g, err)
			continue
		}
		for j, i := range g.idxs {
			out[i], results[i] = g.resp.Outcomes[j], g.results[j]
			n.learnPlacement(req.Events[i].Target, cluster.ServerID(out[i].Host))
		}
	}
}
