// Package node implements AEON's distributed node runtime: it wraps one
// process's server-slice of the system and attaches it to a transport.Mesh,
// so N AEON servers run as N OS processes exchanging gob frames instead of
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
// Wire protocol (see wire.go): client submit and cross-node event
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
	"sync"
	"sync/atomic"
	"time"

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
	// ID is the node's mesh address. By default the node embodies the
	// server with the same ID (ServerID and transport.NodeID are the same
	// type), which is the 1:1 node-per-server deployment.
	ID transport.NodeID
	// Runtime is the node's runtime over the replicated topology. Start
	// installs the multi-process hooks on it (Runtime.SetRemote).
	Runtime *core.Runtime
	// Servers lists the servers this process embodies. Empty means
	// {ServerID(ID)}.
	Servers []cluster.ServerID
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
	// MaxHops bounds submit forwarding chains. Zero means 4.
	MaxHops int
	// CallTimeout bounds each mesh call (submit forwards, store ops). Zero
	// means 10s. Transfers and commanded migrations use TransferTimeout.
	CallTimeout time.Duration
	// TransferTimeout bounds state-transfer and commanded-migration calls,
	// which move real bytes and sleep through protocol windows. Zero means
	// 60s.
	TransferTimeout time.Duration
	// NoPlacementLearning disables repairing the local directory from
	// submit responses. The mesh bench uses it to keep a deliberately stale
	// directory paying the forwarding hop on every call.
	NoPlacementLearning bool
	// Replicate sequences structural mutations (runtime context creation,
	// edge changes, server membership) through the replicated mutation log
	// in the authoritative cloud store, making dynamic topologies work
	// across processes. Off, mutations stay process-local (static
	// topologies only, the pre-replication behavior).
	Replicate bool
	// ReplicationPoll overrides the log tailer's fallback poll interval
	// (zero: the replication default). Steady-state propagation rides
	// notify frames; the poll only bounds staleness under frame loss.
	ReplicationPoll time.Duration
	// ReplicaLagWait bounds how long a submit handler blocks waiting for
	// the local replica to reach the sender's log sequence before failing
	// typed with replication.ErrReplicaLagging. Zero means 5s.
	ReplicaLagWait time.Duration
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
	local       map[cluster.ServerID]bool
	servesStore bool

	// baseCtx parents every RemoteStore call so node shutdown cancels
	// in-flight store ops instead of letting failover retries stack dead
	// calls behind CallTimeout.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	ep    transport.Endpoint
	mgr   *emanager.Manager
	store cloudstore.API
	plane *replication.Plane

	// streams caches one pipelined mux stream per peer for the hot submit
	// path; entries are dropped (and the stream closed) on transport failure
	// so the next call redials. Nil entries never appear: meshes without
	// stream support simply leave the map empty and calls fall back to the
	// one-shot path.
	streamMu sync.Mutex
	streams  map[transport.NodeID]transport.Stream

	// forwarded counts submits this node forwarded to another node;
	// executed counts peer submits it executed locally; batches counts
	// batch frames it handled (however many events each carried);
	// batchEvents counts the events those frames carried.
	forwarded, executed, batches, batchEvents, transfersIn, transfersOut atomic.Uint64

	// ops is the process observability registry (Config.Ops; nil = off).
	// submitLat/forwardLat/batchLat are striped per-frame handler latency
	// histograms, recorded lock-free on the hot path and merged on scrape.
	ops        *ops.Registry
	submitLat  metrics.StripedHistogram
	forwardLat metrics.StripedHistogram
	batchLat   metrics.StripedHistogram

	shutdownOnce sync.Once
	shutdownCh   chan struct{}

	closeOnce sync.Once
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
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = 4
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.TransferTimeout <= 0 {
		cfg.TransferTimeout = 60 * time.Second
	}
	if cfg.ReplicaLagWait <= 0 {
		cfg.ReplicaLagWait = 5 * time.Second
	}
	servers := cfg.Servers
	if len(servers) == 0 {
		servers = []cluster.ServerID{cluster.ServerID(cfg.ID)}
	}
	n := &Node{
		cfg:        cfg,
		id:         cfg.ID,
		rt:         cfg.Runtime,
		local:      make(map[cluster.ServerID]bool, len(servers)),
		streams:    make(map[transport.NodeID]transport.Stream),
		shutdownCh: make(chan struct{}),
	}
	for _, s := range servers {
		n.local[s] = true
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
		n.plane = replication.New(n.rt, n.store, replication.Config{
			Origin: cfg.ID,
			Poll:   cfg.ReplicationPoll,
		})
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
	if n.plane != nil {
		// Catch up from the log before serving a single frame, so a node
		// that (re)joins a live deployment replays every mutation it missed
		// before peers can route to it. Best-effort: when the store node is
		// not reachable yet (peers booting in any order) the tailer keeps
		// retrying, and admission gating covers the window.
		_ = n.plane.Start()
	}
	close(ready)
	return n, nil
}

// ID returns the node's mesh address.
func (n *Node) ID() transport.NodeID { return n.id }

// Runtime returns the node's runtime.
func (n *Node) Runtime() *core.Runtime { return n.rt }

// Manager returns the node's elasticity manager (mesh-wired migrations).
func (n *Node) Manager() *emanager.Manager { return n.mgr }

// Store returns the node's view of the authoritative cloud store.
func (n *Node) Store() cloudstore.API { return n.store }

// Plane returns the node's replication plane (nil unless Config.Replicate).
func (n *Node) Plane() *replication.Plane { return n.plane }

// Forwarded returns how many submits this node forwarded to peers.
func (n *Node) Forwarded() uint64 { return n.forwarded.Load() }

// Executed returns how many peer-submitted events this node executed.
func (n *Node) Executed() uint64 { return n.executed.Load() }

// Batches returns how many batch submit frames this node handled (tests and
// the bench use it to verify coalescing actually reduced frame count).
func (n *Node) Batches() uint64 { return n.batches.Load() }

// Done is closed when a peer requests shutdown (KindShutdown).
func (n *Node) Done() <-chan struct{} { return n.shutdownCh }

// Close detaches the node from the mesh and stops its manager. The runtime
// is left to the caller (it may outlive the mesh attachment in tests).
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		n.baseCancel()
		n.mgr.Stop()
		if n.plane != nil {
			n.plane.Close()
		}
		n.streamMu.Lock()
		streams := n.streams
		n.streams = make(map[transport.NodeID]transport.Stream)
		n.streamMu.Unlock()
		for _, st := range streams {
			_ = st.Close()
		}
		err = n.ep.Close()
	})
	return err
}

// isLocal reports whether this process embodies srv.
func (n *Node) isLocal(srv cluster.ServerID) bool { return n.local[srv] }

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
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	buf, payload, err := encodeFramePooled(pingResp{Node: n.id})
	if err != nil {
		return err
	}
	_, err = n.ep.Call(ctx, peer, transport.Message{Kind: KindPing, Payload: payload})
	releaseFrameBuf(buf)
	return err
}

// Shutdown asks a peer to shut down (its Done channel closes).
func (n *Node) Shutdown(peer transport.NodeID) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	_, err := n.ep.Call(ctx, peer, transport.Message{Kind: KindShutdown})
	return err
}

// MigrateRemote commands the node embodying the group's current host to
// migrate root (and its co-located subtree) to server `to`. The migration —
// including the mesh state transfer — runs on the owning node; this call
// blocks until the group is live on the destination.
func (n *Node) MigrateRemote(owner transport.NodeID, root ownership.ID, to cluster.ServerID) error {
	buf, payload, err := encodeFramePooled(migrateReq{Root: root, To: to})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.TransferTimeout)
	defer cancel()
	raw, err := n.ep.Call(ctx, owner, transport.Message{Kind: KindMigrate, Payload: payload})
	releaseFrameBuf(buf)
	if err != nil {
		return fmt.Errorf("migrate %v via %v: %w", root, owner, err)
	}
	var resp migrateResp
	if err := decodeFrame(raw.Payload, &resp); err != nil {
		return err
	}
	return WireError(resp.ErrKind, resp.Err)
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
			msg := transport.Message{Kind: KindReplicate, Payload: payload}
			// Ride the cached pipelined stream when there is one — hints
			// interleave with submits on the same connection. Best-effort
			// either way: a lost hint costs poll latency, never correctness.
			if st := n.stream(peer); st != nil {
				if _, err := st.Call(ctx, msg); err != nil {
					var remote *transport.RemoteError
					if !errors.As(err, &remote) {
						n.dropStream(peer, st)
					}
				}
				return
			}
			_, _ = n.ep.Call(ctx, peer, msg)
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
// is hosted on a server another node embodies, so ship the whole event
// there. The response's authoritative host repairs this node's directory
// cache when the placement moved.
func (n *Node) forward(host cluster.ServerID, target ownership.ID, method string, args []any) (any, error) {
	n.forwarded.Add(1)
	resp, err := n.callSubmit(n.nodeFor(host), submitReq{
		Target: target,
		Method: method,
		Args:   args,
		Hops:   1,
		MinSeq: n.replicaSeq(),
	})
	if err != nil {
		return nil, err
	}
	n.learnPlacement(target, resp.Host)
	if resp.Err != "" {
		return nil, WireError(resp.ErrKind, resp.Err)
	}
	return resp.Result, nil
}

// stream returns the cached pipelined stream to a peer, opening one on first
// use. Nil means the mesh has no stream support (or the dial failed) and the
// caller should use the one-shot path.
func (n *Node) stream(to transport.NodeID) transport.Stream {
	n.streamMu.Lock()
	st, ok := n.streams[to]
	n.streamMu.Unlock()
	if ok {
		return st
	}
	st, supported, err := transport.OpenStream(n.ep, to)
	if !supported || err != nil {
		return nil
	}
	n.streamMu.Lock()
	if cur, ok := n.streams[to]; ok {
		// Another caller raced the dial; keep theirs.
		n.streamMu.Unlock()
		_ = st.Close()
		return cur
	}
	n.streams[to] = st
	n.streamMu.Unlock()
	return st
}

// dropStream discards a cached stream after a transport failure so the next
// call redials instead of reusing a broken connection.
func (n *Node) dropStream(to transport.NodeID, st transport.Stream) {
	n.streamMu.Lock()
	if cur, ok := n.streams[to]; ok && cur == st {
		delete(n.streams, to)
	}
	n.streamMu.Unlock()
	_ = st.Close()
}

// callSubmit sends one submit frame and decodes the response. Submits are
// the hot path: the frame rides the hand-rolled hot codec in a pooled
// buffer, and travels over the cached pipelined stream to the peer when the
// mesh supports one — many submits share one connection with in-flight
// windowing — falling back to the one-shot call otherwise.
func (n *Node) callSubmit(to transport.NodeID, req submitReq) (submitResp, error) {
	hot := schema.SubmitReq{
		Target: req.Target,
		Method: req.Method,
		Args:   req.Args,
		Hops:   uint32(req.Hops),
		MinSeq: req.MinSeq,
		Trace:  req.Trace,
	}
	buf := schema.GetFrameBuf()
	payload, err := hot.MarshalWire((*buf)[:0])
	if err != nil {
		schema.PutFrameBuf(buf)
		return submitResp{}, err
	}
	*buf = payload

	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	msg := transport.Message{Kind: KindSubmit, Payload: payload}
	var raw transport.Message
	if st := n.stream(to); st != nil {
		raw, err = st.Call(ctx, msg)
		var remote *transport.RemoteError
		if err != nil && !errors.As(err, &remote) {
			// Transport failure (not a handler error): the stream is broken
			// or timed out; discard it so the next submit redials. No retry
			// here — the outcome is ambiguous and events are not idempotent.
			n.dropStream(to, st)
		}
	} else {
		raw, err = n.ep.Call(ctx, to, msg)
	}
	schema.PutFrameBuf(buf) // endpoints do not retain payloads past Call
	if err != nil {
		return submitResp{}, fmt.Errorf("submit to %v: %w", to, err)
	}
	var hr schema.SubmitResp
	if err := hr.UnmarshalWire(raw.Payload); err != nil {
		return submitResp{}, err
	}
	return submitResp{
		Result:  hr.Result,
		Host:    cluster.ServerID(hr.Host),
		Err:     hr.Err,
		ErrKind: hr.ErrKind,
	}, nil
}

// learnPlacement repairs the local directory cache from an authoritative
// placement carried in a submit response. The response's Host is the
// placement of the event's *dominator* — the entry every routing decision
// (ours and our peers') is made on — so only that entry is repaired: the
// target itself may legitimately live on another server (a leaf migrated
// without its subtree), and overwriting its correct entry with the
// dominator's host would corrupt it.
func (n *Node) learnPlacement(target ownership.ID, host cluster.ServerID) {
	if host == 0 || n.cfg.NoPlacementLearning {
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
	case KindPing:
		payload, err := encodeFrame(pingResp{Node: n.id})
		return transport.Message{Kind: KindPing, Payload: payload}, err
	case KindSubmit:
		var hr schema.SubmitReq
		if err := hr.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		resp := n.handleSubmit(submitReq{
			Target: hr.Target,
			Method: hr.Method,
			Args:   hr.Args,
			Hops:   int(hr.Hops),
			MinSeq: hr.MinSeq,
			Trace:  hr.Trace,
		})
		hot := schema.SubmitResp{
			Result:  resp.Result,
			Host:    int64(resp.Host),
			Err:     resp.Err,
			ErrKind: resp.ErrKind,
		}
		payload, err := hot.MarshalWire(nil)
		return transport.Message{Kind: KindSubmit, Payload: payload}, err
	case KindSubmitBatch:
		var br schema.SubmitBatchReq
		if err := br.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		resp := n.handleSubmitBatch(&br)
		payload, err := resp.MarshalWire(nil)
		return transport.Message{Kind: KindSubmitBatch, Payload: payload}, err
	case KindStore:
		var op cloudstore.Op
		if err := decodeFrame(req.Payload, &op); err != nil {
			return transport.Message{}, err
		}
		payload, err := encodeFrame(n.handleStore(op))
		return transport.Message{Kind: KindStore, Payload: payload}, err
	case KindTransfer:
		var rec schema.TransferRec
		if err := rec.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		msg, kind := errFields(n.handleTransfer(transferReq{
			Members:    rec.Members,
			From:       cluster.ServerID(rec.From),
			To:         cluster.ServerID(rec.To),
			TotalBytes: int(rec.TotalBytes),
			States:     rec.States,
			MinSeq:     rec.MinSeq,
		}))
		payload, err := encodeFrame(transferResp{Err: msg, ErrKind: kind})
		return transport.Message{Kind: KindTransfer, Payload: payload}, err
	case KindTransferQuery:
		var tq transferQueryReq
		if err := decodeFrame(req.Payload, &tq); err != nil {
			return transport.Message{}, err
		}
		host, ok := n.rt.Directory().Locate(tq.Probe)
		payload, err := encodeFrame(transferQueryResp{Committed: ok && host == tq.To})
		return transport.Message{Kind: KindTransferQuery, Payload: payload}, err
	case KindMigrate:
		var mr migrateReq
		if err := decodeFrame(req.Payload, &mr); err != nil {
			return transport.Message{}, err
		}
		msg, kind := errFields(n.handleMigrate(mr))
		payload, err := encodeFrame(migrateResp{Err: msg, ErrKind: kind})
		return transport.Message{Kind: KindMigrate, Payload: payload}, err
	case KindReplicate:
		var nr schema.NotifyRec
		if err := nr.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		if n.plane != nil {
			n.plane.Poke(nr.Seq)
		}
		// The hint is fire-and-forget; an empty ack suffices.
		return transport.Message{Kind: KindReplicate}, nil
	case KindShutdown:
		n.shutdownOnce.Do(func() { close(n.shutdownCh) })
		return transport.Message{Kind: KindShutdown}, nil
	default:
		return transport.Message{}, fmt.Errorf("node %v: unknown frame kind %q", n.id, req.Kind)
	}
}

// route resolves the server hosting target's sequencing point (its
// dominator), for both submit handlers. caughtUp records that the frame
// being handled already pulled the replication log, so one frame pays at
// most one catch-up however many unknown targets it names.
func (n *Node) route(target ownership.ID, caughtUp *bool) (cluster.ServerID, error) {
	dom, _, err := n.rt.Graph().Resolve(target)
	if err != nil && errors.Is(err, ownership.ErrNotFound) && n.plane != nil && !*caughtUp {
		// The sender may know the target from a mutation whose sequence it
		// did not carry (e.g. a client-side retry): pull the log once
		// before declaring the context unknown. Gated on not-found so other
		// resolve failures don't buy a store round trip per submit.
		*caughtUp = true
		if n.plane.CatchUp() == nil {
			dom, _, err = n.rt.Graph().Resolve(target)
		}
	}
	if err != nil {
		// Keep the typed sentinel for the wire kind, but carry the real
		// cause (store outage mid-catch-up, resolve ambiguity) in the
		// message — "unknown context" alone hides what actually failed.
		return 0, fmt.Errorf("dominator of %v: %v: %w", target, err, core.ErrUnknownContext)
	}
	dir := n.rt.Directory()
	host, ok := dir.Locate(dom)
	if !ok {
		// An event can name a sequencing point this node has resolved but
		// never materialized: a virtual join minted by the Resolve above is
		// placed only when the runtime materializes it. Materialize it here
		// — the runtime places it deterministically alongside its first
		// child — then re-read the directory.
		if _, cerr := n.rt.Context(dom); cerr == nil {
			host, ok = dir.Locate(dom)
		}
	}
	if !ok {
		return 0, fmt.Errorf("%v: %w", dom, core.ErrUnknownContext)
	}
	return host, nil
}

// handleSubmit executes or forwards one submitted event. Placement is
// resolved against the local directory snapshot; a miss forwards along the
// directory's answer with the hop budget decremented, so a stale sender
// pays exactly the forwarding hop of the paper's staleness window.
func (n *Node) handleSubmit(req submitReq) submitResp {
	// Lag-aware admission: the sender's replica had applied MinSeq of the
	// mutation log when it routed here. Block until ours has too (the
	// target may only exist past that sequence), then fail typed if the
	// replica stays behind — never admit against a torn view.
	if n.plane != nil && req.MinSeq > n.plane.Applied() {
		if err := n.plane.WaitFor(req.MinSeq, n.cfg.ReplicaLagWait); err != nil {
			n.emit("backpressure.lag", map[string]any{
				"node": int64(n.id), "min_seq": req.MinSeq, "applied": n.plane.Applied(), "err": err.Error(),
			})
			msg, kind := errFields(fmt.Errorf("submit %v at seq %d: %w", req.Target, req.MinSeq, err))
			return submitResp{Err: msg, ErrKind: kind}
		}
	}
	host, err := n.route(req.Target, new(bool))
	if err != nil {
		msg, kind := errFields(err)
		return submitResp{Err: msg, ErrKind: kind}
	}
	if !n.isLocal(host) {
		// Forward on miss: our cached mapping says another node hosts the
		// sequencing point.
		if req.Hops >= n.cfg.MaxHops {
			msg, kind := errFields(fmt.Errorf("%v after %d hops: %w", req.Target, req.Hops, ErrTooManyHops))
			return submitResp{Err: msg, ErrKind: kind, Host: host}
		}
		fwd := req
		fwd.Hops++
		if s := n.replicaSeq(); s > fwd.MinSeq {
			fwd.MinSeq = s
		}
		n.forwarded.Add(1)
		start := time.Now()
		resp, err := n.callSubmit(n.nodeFor(host), fwd)
		d := time.Since(start)
		n.forwardLat.Record(d)
		n.span(req.Trace, "forward", req.Target, req.Method, req.Hops, d)
		if err != nil {
			msg, kind := errFields(err)
			return submitResp{Err: msg, ErrKind: kind, Host: host}
		}
		n.learnPlacement(req.Target, resp.Host)
		return resp
	}
	n.executed.Add(1)
	start := time.Now()
	// The runtime reports the authoritative placement it admitted the event
	// at (it may itself have forwarded if a migration raced admission).
	res, host, err := n.rt.SubmitRouted(req.Target, req.Method, req.Args...)
	d := time.Since(start)
	n.submitLat.Record(d)
	n.span(req.Trace, "execute", req.Target, req.Method, req.Hops, d)
	resp := submitResp{Result: res, Host: host}
	resp.Err, resp.ErrKind = errFields(err)
	return resp
}

// callSubmitBatch forwards a sub-batch of events to a peer as one hot batch
// frame over the cached pipelined stream, mirroring callSubmit's transport
// discipline (pooled encode buffer, stream drop on transport failure, no
// retry — outcomes are ambiguous and events are not idempotent).
func (n *Node) callSubmitBatch(to transport.NodeID, req *schema.SubmitBatchReq) (schema.SubmitBatchResp, error) {
	buf := schema.GetFrameBuf()
	payload, err := req.MarshalWire((*buf)[:0])
	if err != nil {
		schema.PutFrameBuf(buf)
		return schema.SubmitBatchResp{}, err
	}
	*buf = payload

	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	msg := transport.Message{Kind: KindSubmitBatch, Payload: payload}
	var raw transport.Message
	if st := n.stream(to); st != nil {
		raw, err = st.Call(ctx, msg)
		var remote *transport.RemoteError
		if err != nil && !errors.As(err, &remote) {
			n.dropStream(to, st)
		}
	} else {
		raw, err = n.ep.Call(ctx, to, msg)
	}
	schema.PutFrameBuf(buf) // endpoints do not retain payloads past Call
	if err != nil {
		return schema.SubmitBatchResp{}, fmt.Errorf("batch submit to %v: %w", to, err)
	}
	var resp schema.SubmitBatchResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		return schema.SubmitBatchResp{}, err
	}
	return resp, nil
}

// handleSubmitBatch executes or forwards a batch of independent events in
// one admission. The frame-level fields are charged once — one replication-
// lag gate, one hop budget — while every outcome is per-event: a typed
// failure (unknown context, backpressure, hop exhaustion) fills only its own
// slot and its batchmates proceed. Events whose dominators live on peers are
// regrouped into per-host sub-batches and forwarded as batch frames, so a
// stale route costs one extra frame per host, not per event; each forwarded
// outcome carries the authoritative Host, which is learned here exactly like
// the single-submit path does.
func (n *Node) handleSubmitBatch(req *schema.SubmitBatchReq) schema.SubmitBatchResp {
	n.batches.Add(1)
	n.batchEvents.Add(uint64(len(req.Events)))
	batchStart := time.Now()
	defer func() { n.batchLat.Record(time.Since(batchStart)) }()
	out := make([]schema.BatchOutcome, len(req.Events))
	resp := schema.SubmitBatchResp{Outcomes: out}
	if len(req.Events) == 0 {
		return resp
	}
	// One lag-aware admission for the whole frame (see handleSubmit).
	if n.plane != nil && req.MinSeq > n.plane.Applied() {
		if err := n.plane.WaitFor(req.MinSeq, n.cfg.ReplicaLagWait); err != nil {
			n.emit("backpressure.lag", map[string]any{
				"node": int64(n.id), "min_seq": req.MinSeq, "applied": n.plane.Applied(), "err": err.Error(),
			})
			msg, kind := errFields(fmt.Errorf("batch submit at seq %d: %w", req.MinSeq, err))
			for i := range out {
				out[i].Err, out[i].ErrKind = msg, kind
			}
			return resp
		}
	}
	// At most one log catch-up per batch: the first unknown target pulls the
	// log once; batchmates resolve against the refreshed snapshot.
	caughtUp := false
	executedHere := 0
	var fwd map[cluster.ServerID][]int
	for i := range req.Events {
		ev := &req.Events[i]
		host, err := n.route(ev.Target, &caughtUp)
		if err != nil {
			out[i].Err, out[i].ErrKind = errFields(err)
			continue
		}
		if !n.isLocal(host) {
			if req.Hops >= uint32(n.cfg.MaxHops) {
				msg, kind := errFields(fmt.Errorf("%v after %d hops: %w", ev.Target, req.Hops, ErrTooManyHops))
				out[i].Err, out[i].ErrKind, out[i].Host = msg, kind, int64(host)
				continue
			}
			if fwd == nil {
				fwd = make(map[cluster.ServerID][]int)
			}
			fwd[host] = append(fwd[host], i)
			continue
		}
		n.executed.Add(1)
		res, host, err := n.rt.SubmitRouted(ev.Target, ev.Method, ev.Args...)
		executedHere++
		out[i].Result, out[i].Host = res, int64(host)
		out[i].Err, out[i].ErrKind = errFields(err)
	}
	if executedHere > 0 {
		// One span covers the frame's locally executed slice — per-event spans
		// would multiply the feed by the batch size for no extra structure.
		n.span(req.Trace, "batch-execute", ownership.ID(executedHere), "", int(req.Hops), time.Since(batchStart))
	}
	if len(fwd) == 0 {
		return resp
	}
	// Regroup misrouted events per host and forward each group as one batch
	// frame, concurrently across hosts. Outcome slots are disjoint per group,
	// so the goroutines never write the same index.
	minSeq := req.MinSeq
	if s := n.replicaSeq(); s > minSeq {
		minSeq = s
	}
	var wg sync.WaitGroup
	for host, idxs := range fwd {
		wg.Add(1)
		go func(host cluster.ServerID, idxs []int) {
			defer wg.Done()
			sub := schema.SubmitBatchReq{
				Hops:   req.Hops + 1,
				MinSeq: minSeq,
				Trace:  req.Trace,
				Events: make([]schema.BatchEvent, len(idxs)),
			}
			for j, i := range idxs {
				sub.Events[j] = req.Events[i]
				n.forwarded.Add(1)
			}
			start := time.Now()
			fres, err := n.callSubmitBatch(n.nodeFor(host), &sub)
			n.span(req.Trace, "batch-forward", ownership.ID(len(idxs)), "", int(req.Hops), time.Since(start))
			if err != nil {
				msg, kind := errFields(err)
				for _, i := range idxs {
					out[i].Err, out[i].ErrKind, out[i].Host = msg, kind, int64(host)
				}
				return
			}
			for j, i := range idxs {
				if j >= len(fres.Outcomes) {
					out[i].Err, out[i].ErrKind = "batch response truncated", errKindApp
					continue
				}
				out[i] = fres.Outcomes[j]
				n.learnPlacement(req.Events[i].Target, cluster.ServerID(fres.Outcomes[j].Host))
			}
		}(host, idxs)
	}
	wg.Wait()
	return resp
}

// handleMigrate serves a commanded migration: only the node embodying the
// group's current host may run it (the migration engine is source-driven).
func (n *Node) handleMigrate(req migrateReq) error {
	host, ok := n.rt.Directory().Locate(req.Root)
	if !ok {
		return fmt.Errorf("%v: %w", req.Root, core.ErrUnknownContext)
	}
	if !n.isLocal(host) {
		return fmt.Errorf("migrate %v hosted on %v: %w", req.Root, host, ErrNotLocalServer)
	}
	n.emit("migration.start", map[string]any{
		"node": int64(n.id), "root": uint64(req.Root), "from": int64(host), "to": int64(req.To),
	})
	start := time.Now()
	err := n.mgr.MigrateGroup(req.Root, req.To)
	if err != nil {
		n.emit("migration.abort", map[string]any{
			"node": int64(n.id), "root": uint64(req.Root), "to": int64(req.To), "err": err.Error(),
		})
		return err
	}
	n.emit("migration.commit", map[string]any{
		"node": int64(n.id), "root": uint64(req.Root), "from": int64(host), "to": int64(req.To),
		"us": time.Since(start).Microseconds(),
	})
	return nil
}

// transferGroup is the migration engine's Transfer hook: serialize every
// member's state and ship it to the destination node, which installs it and
// remaps its directory replica. Destinations embodied by this node need no
// wire round trip (the registry is shared process-wide).
func (n *Node) transferGroup(members []ownership.ID, from, to cluster.ServerID, totalBytes int) error {
	if n.isLocal(to) {
		return nil
	}
	states := make(map[uint64][]byte, len(members))
	for _, id := range members {
		c, err := n.rt.Context(id)
		if err != nil {
			return fmt.Errorf("transfer %v: %w", id, err)
		}
		st := c.State()
		if st == nil {
			continue
		}
		b, err := schema.EncodeWire(st)
		if err != nil {
			return fmt.Errorf("transfer %v: %w", id, err)
		}
		states[uint64(id)] = b
	}
	rec := schema.TransferRec{
		Members:    members,
		From:       int64(from),
		To:         int64(to),
		TotalBytes: int64(totalBytes),
		States:     states,
		MinSeq:     n.replicaSeq(),
	}
	payload, err := rec.MarshalWire(nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.TransferTimeout)
	defer cancel()
	n.transfersOut.Add(1)
	raw, err := n.ep.Call(ctx, n.nodeFor(to), transport.Message{Kind: KindTransfer, Payload: payload})
	if err != nil {
		// Ambiguous outcome: the request — or just its ack — may have been
		// lost after the destination installed the state and remapped its
		// directory (it commits inside the handler). Probe the destination:
		// if it committed, the transfer succeeded and the source must
		// proceed with its own remap, or two processes would both consider
		// themselves authoritative for the group. If the probe says "not
		// committed" (or the peer is unreachable), abort with the WAL
		// intact; Recover re-runs the protocol and converges.
		if len(members) > 0 && n.transferCommitted(members[0], to) {
			return nil
		}
		return fmt.Errorf("transfer to %v: %w", to, err)
	}
	var resp transferResp
	if err := decodeFrame(raw.Payload, &resp); err != nil {
		return err
	}
	return WireError(resp.ErrKind, resp.Err)
}

// transferCommitted asks the destination whether it committed a transfer
// whose acknowledgment was lost. Any probe failure reports false — the
// caller then aborts and leaves convergence to WAL recovery.
func (n *Node) transferCommitted(probe ownership.ID, to cluster.ServerID) bool {
	buf, payload, err := encodeFramePooled(transferQueryReq{Probe: probe, To: to})
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.CallTimeout)
	defer cancel()
	raw, err := n.ep.Call(ctx, n.nodeFor(to), transport.Message{Kind: KindTransferQuery, Payload: payload})
	releaseFrameBuf(buf)
	if err != nil {
		return false
	}
	var resp transferQueryResp
	if err := decodeFrame(raw.Payload, &resp); err != nil {
		return false
	}
	return resp.Committed
}

// handleTransfer installs a migrated group on this node: decode and set
// each member's state, then remap the local directory replica in one
// MoveBatch epoch (RehostBatch) and mirror the NIC transfer accounting the
// source engine charges on its side.
func (n *Node) handleTransfer(req transferReq) error {
	if !n.isLocal(req.To) {
		return fmt.Errorf("transfer for %v: %w", req.To, ErrNotLocalServer)
	}
	// Group members created at runtime exist here only once the replica has
	// applied their creating records: block on the source's sequence before
	// installing, exactly like submit admission.
	if n.plane != nil && req.MinSeq > n.plane.Applied() {
		if err := n.plane.WaitFor(req.MinSeq, n.cfg.ReplicaLagWait); err != nil {
			return fmt.Errorf("transfer at seq %d: %w", req.MinSeq, err)
		}
	}
	for _, id := range req.Members {
		c, err := n.rt.Context(id)
		if err != nil {
			return fmt.Errorf("install %v: %w", id, err)
		}
		b, ok := req.States[uint64(id)]
		if !ok {
			continue
		}
		v, err := schema.DecodeWire(b)
		if err != nil {
			return fmt.Errorf("install %v: %w", id, err)
		}
		c.SetState(v)
	}
	if err := n.rt.RehostBatch(req.Members, req.To); err != nil {
		return err
	}
	n.transfersIn.Add(1)
	n.emit("transfer.install", map[string]any{
		"node": int64(n.id), "members": len(req.Members),
		"from": int64(req.From), "to": int64(req.To), "bytes": req.TotalBytes,
	})
	cl := n.rt.Cluster()
	if s, ok := cl.Server(req.To); ok {
		s.AddTransferBytes(int64(req.TotalBytes))
	}
	if s, ok := cl.Server(req.From); ok {
		s.AddTransferBytes(int64(req.TotalBytes))
	}
	return nil
}

// handleStore serves one cloud-store operation from the authoritative local
// store. Non-store nodes refuse typed, so a misconfigured peer fails fast.
func (n *Node) handleStore(op cloudstore.Op) storeResp {
	st := n.cfg.LocalStore
	if !n.servesStore || st == nil {
		msg, kind := errFields(fmt.Errorf("node %v: %w", n.id, ErrNotStoreNode))
		return storeResp{Err: msg, ErrKind: kind}
	}
	return execStoreOp(st, op)
}
