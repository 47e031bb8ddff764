package node

import (
	"context"
	"fmt"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/core"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// RemoteStore is a cloudstore.Doer over the transport mesh: every operation
// is one request/response exchange with a store replica, so all processes of
// a deployment journal migrations, mappings, and checkpoints into one
// authoritative store plane — the paper's cloud-storage role (§ 5.1), with
// store-server processes (or a store-serving node) standing in for
// ZooKeeper/S3.
//
// Every call runs under a context derived from the owner's lifecycle (the
// node's base context, canceled on Close): when a partition client abandons
// a replica mid-failover, its in-flight calls are canceled instead of
// stacking up behind dead peers until callTimeout.
type RemoteStore struct {
	cloudstore.Typed

	node *Node // set when owned by a node: endpoint/timeout/ctx resolve lazily

	// Standalone wiring (partition clients owned by the harness or driver).
	ep      transport.Endpoint
	to      transport.NodeID
	timeout time.Duration
	base    context.Context
}

var _ cloudstore.API = (*RemoteStore)(nil)

// NewRemoteStore returns a mesh client for the store replica at `to`,
// bounding each call by timeout and canceling in-flight calls when base is
// canceled. A nil base means context.Background().
func NewRemoteStore(ep transport.Endpoint, to transport.NodeID, timeout time.Duration, base context.Context) *RemoteStore {
	if base == nil {
		base = context.Background()
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	r := &RemoteStore{ep: ep, to: to, timeout: timeout, base: base}
	r.Typed = cloudstore.NewTyped(r)
	return r
}

// remoteStore returns a mesh client owned by n: it calls through n's
// endpoint under n's lifecycle context and callTimeout.
func (n *Node) remoteStore(to transport.NodeID) *RemoteStore {
	r := &RemoteStore{node: n, to: to}
	r.Typed = cloudstore.NewTyped(r)
	return r
}

// callCtx derives the per-call context: the owning node's base context when
// node-owned (so node shutdown cancels in-flight store ops), the configured
// base otherwise.
func (r *RemoteStore) callCtx() (context.Context, context.CancelFunc) {
	if r.node != nil {
		return context.WithTimeout(r.node.baseCtx, callTimeout)
	}
	return context.WithTimeout(r.base, r.timeout)
}

func (r *RemoteStore) endpoint() transport.Endpoint {
	if r.node != nil {
		return r.node.ep
	}
	return r.ep
}

// Do performs one store exchange: the op is the request frame, encoded into
// a pooled buffer like every other node frame.
func (r *RemoteStore) Do(op cloudstore.Op) (cloudstore.Result, error) {
	ctx, cancel := r.callCtx()
	defer cancel()
	start := time.Now()
	raw, err := sendHot(ctx, r.endpoint(), r.to, KindStore, func(dst []byte) ([]byte, error) {
		return op.AppendWire(dst), nil
	})
	if r.node != nil {
		r.node.storeLat.Record(time.Since(start))
	}
	if err != nil {
		return cloudstore.Result{}, fmt.Errorf("store %v via %v: %w", op.Kind, r.to, err)
	}
	var rep cloudstore.Reply
	if err := rep.UnmarshalWire(raw.Payload); err != nil {
		return cloudstore.Result{}, err
	}
	return rep.Result, schema.Err(rep.Code, rep.Err)
}

// serveStore is the KindStore arm of a store-serving handler, shared by
// store-serving nodes and dedicated store servers so both speak exactly the
// same protocol: decode the op, run it, answer with its Reply. The Result
// rides even next to an error: a fence refusal carries the accepted epoch.
func serveStore(do func(cloudstore.Op) (cloudstore.Result, error), payload []byte) (transport.Message, error) {
	var op cloudstore.Op
	if err := op.UnmarshalWire(payload); err != nil {
		return transport.Message{}, err
	}
	res, err := do(op)
	rep := cloudstore.Reply{Result: res}
	if err != nil {
		rep.Err, rep.Code = err.Error(), schema.CodeOf(err)
	}
	return transport.Message{Kind: KindStore, Payload: rep.AppendWire(nil)}, nil
}

// handleStore serves one cloud-store operation from the authoritative local
// store. Non-store nodes refuse typed, so a misconfigured peer fails fast.
func (n *Node) handleStore(op cloudstore.Op) (cloudstore.Result, error) {
	st := n.cfg.LocalStore
	if !n.servesStore || st == nil {
		return cloudstore.Result{}, fmt.Errorf("node %v serves no store: %w", n.id, core.ErrNotLocal)
	}
	return st.Do(op)
}
