package node

import (
	"context"
	"fmt"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// MigrateRemote commands the node embodying the group's current host to
// migrate root (and its co-located subtree) to server `to`. The migration —
// including the mesh state transfer — runs on the owning node; this call
// blocks until the group is live on the destination.
func (n *Node) MigrateRemote(owner transport.NodeID, root ownership.ID, to cluster.ServerID) error {
	req := schema.PlaceReq{Context: root, Server: int64(to)}
	ctx, cancel := context.WithTimeout(context.Background(), transferTimeout)
	defer cancel()
	raw, err := sendHot(ctx, n.ep, owner, KindMigrate, req.MarshalWire)
	if err != nil {
		return fmt.Errorf("migrate %v via %v: %w", root, owner, err)
	}
	return acked(raw)
}

// handleMigrate serves a commanded migration: only the node embodying the
// group's current host may run it (the migration engine is source-driven).
func (n *Node) handleMigrate(root ownership.ID, to cluster.ServerID) error {
	host, ok := n.rt.Directory().Locate(root)
	if !ok {
		return fmt.Errorf("%v: %w", root, core.ErrUnknownContext)
	}
	if !n.isLocal(host) {
		return fmt.Errorf("migrate %v hosted on %v: %w", root, host, core.ErrNotLocal)
	}
	n.emit("migration.start", map[string]any{
		"node": int64(n.id), "root": uint64(root), "from": int64(host), "to": int64(to),
	})
	start := time.Now()
	err := n.mgr.MigrateGroup(root, to)
	if err != nil {
		n.emit("migration.abort", map[string]any{
			"node": int64(n.id), "root": uint64(root), "to": int64(to), "err": err.Error(),
		})
		return err
	}
	n.emit("migration.commit", map[string]any{
		"node": int64(n.id), "root": uint64(root), "from": int64(host), "to": int64(to),
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
	ctx, cancel := context.WithTimeout(context.Background(), transferTimeout)
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
		// intact: the group resumes at the source, and the journal entry is
		// left for emanager.Manager.Recover to roll forward. Nothing in the
		// product calls Recover yet, so until something does, the entry
		// stays and nothing converges it.
		if len(members) > 0 && n.transferCommitted(members[0], to) {
			return nil
		}
		return fmt.Errorf("transfer to %v: %w", to, err)
	}
	return acked(raw)
}

// transferCommitted asks the destination whether it committed a transfer
// whose acknowledgment was lost. Any probe failure reports false — the
// caller then aborts and leaves convergence to WAL recovery.
func (n *Node) transferCommitted(probe ownership.ID, to cluster.ServerID) bool {
	req := schema.PlaceReq{Context: probe, Server: int64(to)}
	raw, err := n.callHot(n.nodeFor(to), KindTransferQuery, req.MarshalWire)
	if err != nil {
		return false
	}
	var resp schema.SubmitResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		return false
	}
	committed, _ := resp.Result.(bool)
	return committed
}

// handleTransfer installs a migrated group on this node: decode and set
// each member's state, then remap the local directory replica in one
// MoveBatch epoch (RehostBatch) and mirror the NIC transfer accounting the
// source engine charges on its side. Members without a States entry (nil
// state, adopted stragglers carrying factory state) are remapped without a
// state install.
func (n *Node) handleTransfer(req *schema.TransferRec) error {
	from, to := cluster.ServerID(req.From), cluster.ServerID(req.To)
	if !n.isLocal(to) {
		return fmt.Errorf("transfer for %v: %w", to, core.ErrNotLocal)
	}
	// Group members created at runtime exist here only once the replica has
	// applied their creating records: block on the source's sequence before
	// installing, exactly like submit admission.
	if n.plane != nil && req.MinSeq > n.plane.Applied() {
		if err := n.plane.WaitFor(req.MinSeq, replicaLagWait); err != nil {
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
	if err := n.rt.RehostBatch(req.Members, to); err != nil {
		return err
	}
	n.transfersIn.Add(1)
	n.emit("transfer.install", map[string]any{
		"node": int64(n.id), "members": len(req.Members),
		"from": req.From, "to": req.To, "bytes": req.TotalBytes,
	})
	cl := n.rt.Cluster()
	if s, ok := cl.Server(to); ok {
		s.AddTransferBytes(req.TotalBytes)
	}
	if s, ok := cl.Server(from); ok {
		s.AddTransferBytes(req.TotalBytes)
	}
	return nil
}
