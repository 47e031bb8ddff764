package node

import (
	"context"
	"fmt"
	"time"

	"aeon/internal/cloudstore"
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
// stacking up behind dead peers until CallTimeout.
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
// endpoint under n's lifecycle context and CallTimeout.
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
		return context.WithTimeout(r.node.baseCtx, r.node.cfg.CallTimeout)
	}
	return context.WithTimeout(r.base, r.timeout)
}

func (r *RemoteStore) endpoint() transport.Endpoint {
	if r.node != nil {
		return r.node.ep
	}
	return r.ep
}

// Do performs one store exchange: the op is the request frame. Store frames
// stay on the gob codec (control path), but encode into a pooled buffer:
// endpoints do not retain request payloads past Call, so the buffer recycles
// per exchange.
func (r *RemoteStore) Do(op cloudstore.Op) (cloudstore.Result, error) {
	buf, payload, err := encodeFramePooled(op)
	if err != nil {
		return cloudstore.Result{}, err
	}
	ctx, cancel := r.callCtx()
	defer cancel()
	raw, err := r.endpoint().Call(ctx, r.to, transport.Message{Kind: KindStore, Payload: payload})
	releaseFrameBuf(buf)
	if err != nil {
		return cloudstore.Result{}, fmt.Errorf("store %v via %v: %w", op.Kind, r.to, err)
	}
	var resp storeResp
	if err := decodeFrame(raw.Payload, &resp); err != nil {
		return cloudstore.Result{}, err
	}
	res := cloudstore.Result{Value: resp.Value, Version: resp.Version, Keys: resp.Keys}
	return res, schema.Err(resp.Code, resp.Err)
}

// execStoreOp runs one store frame's op against a replica and renders the
// outcome for the wire. It is shared by store-serving nodes and dedicated
// store servers so both speak exactly the same protocol. The Result rides
// even next to an error: a fence refusal carries the accepted epoch.
func execStoreOp(st cloudstore.Doer, op cloudstore.Op) storeResp {
	res, err := st.Do(op)
	resp := storeResp{Value: res.Value, Version: res.Version, Keys: res.Keys}
	if err != nil {
		resp.Err, resp.Code = err.Error(), schema.CodeOf(err)
	}
	return resp
}
