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
// Every call runs under a context derived from the owning node's base
// context, canceled on Close: when a partition client abandons a replica
// mid-failover, its in-flight calls are canceled instead of stacking up
// behind dead peers until callTimeout.
type RemoteStore struct {
	cloudstore.Typed

	node *Node
	to   transport.NodeID
}

var _ cloudstore.API = (*RemoteStore)(nil)

// remoteStore returns a mesh client owned by n: it calls through n's
// endpoint under n's lifecycle context and callTimeout.
func (n *Node) remoteStore(to transport.NodeID) *RemoteStore {
	r := &RemoteStore{node: n, to: to}
	r.Typed = cloudstore.NewTyped(r)
	return r
}

// Do performs one store exchange: the op is the request frame, encoded into
// a pooled buffer like every other node frame.
func (r *RemoteStore) Do(op cloudstore.Op) (cloudstore.Result, error) {
	ctx, cancel := context.WithTimeout(r.node.baseCtx, callTimeout)
	defer cancel()
	start := time.Now()
	raw, err := sendHot(ctx, r.node.ep, r.to, schema.KindStore, func(dst []byte) ([]byte, error) {
		return op.AppendWire(dst), nil
	})
	r.node.storeLat.Record(time.Since(start))
	if err != nil {
		return cloudstore.Result{}, fmt.Errorf("store %v via %v: %w", op.Kind, r.to, err)
	}
	var rep cloudstore.Reply
	err = rep.UnmarshalWire(raw.Payload)
	raw.Release() // the decoded reply owns its bytes
	if err != nil {
		return cloudstore.Result{}, err
	}
	return rep.Result, schema.Err(rep.Code, rep.Err)
}

// serveStore is the schema.KindStore arm of a store-serving handler, shared by
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
	buf := schema.GetFrameBuf()
	*buf = rep.AppendWire(*buf)
	return transport.PooledMessage(schema.KindStore, buf), nil
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
