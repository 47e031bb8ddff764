package node

// The node wire protocol: frames carried in transport.Message payloads, each
// one a transport.Endpoint Call (or one request of a CallBatch) — on a TCP
// mesh all of them share the endpoint's one connection to the peer. Every
// exchange is request/response, and every payload is a hot-codec frame
// (schema/hotframe.go) or empty; a payload that is anything else is a decode
// error (schema.ErrHotFrame), not a second protocol:
//
//	kind                  request                 response
//	node.submit           schema.SubmitReq        schema.SubmitResp
//	node.submit.batch     schema.SubmitBatchReq   schema.SubmitBatchResp
//	node.store            cloudstore.Op           cloudstore.Reply
//	node.transfer         schema.TransferRec      schema.SubmitResp (Code, Err)
//	node.transfer.query   schema.PlaceReq         schema.SubmitResp (Result: committed)
//	node.migrate          schema.PlaceReq         schema.SubmitResp (Code, Err)
//	node.ping             empty                   schema.SubmitResp (Host: the peer's ID)
//	node.replicate.notify schema.NotifyRec        empty
//	node.shutdown         empty                   empty
//
// Handler-level failures travel in-band as a schema.Code plus message. The
// sentinels are their codes (schema/errors.go), so there is nothing to map at
// either end: the sender reads the code out of the error chain, the receiver
// rebuilds the error with schema.Err, and errors.Is holds across the wire.

import (
	"context"

	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Frame kinds, routed by transport.Message.Kind.
const (
	// KindPing checks liveness and readiness of a peer.
	KindPing = "node.ping"
	// KindSubmit submits (or forwards) one event for execution.
	KindSubmit = "node.submit"
	// KindSubmitBatch submits (or forwards) a batch of independent events in
	// one frame: one admission, one response, per-event outcomes
	// (schema.SubmitBatchReq/Resp).
	KindSubmitBatch = "node.submit.batch"
	// KindStore performs one cloud-store operation on a store replica.
	KindStore = "node.store"
	// KindTransfer installs a migrated group's state on the destination
	// node (migration protocol step IV over the mesh).
	KindTransfer = "node.transfer"
	// KindTransferQuery asks a destination whether it committed a transfer
	// (state installed and directory remapped). The source uses it to
	// resolve a lost transfer ack: without it, a dropped response would
	// leave the destination live while the source aborted — two
	// authoritative copies.
	KindTransferQuery = "node.transfer.query"
	// KindReplicate hints that the replication log advanced to a sequence:
	// the appender sends it to every peer after a durable append so
	// steady-state mutation propagation is one frame, not a poll interval.
	// Best-effort — a lost or duplicated hint is absorbed by the tailer's
	// poll and per-record idempotency.
	KindReplicate = "node.replicate.notify"
	// KindMigrate asks a node to migrate a group it hosts (control plane).
	KindMigrate = "node.migrate"
	// KindShutdown asks a node to shut down (control plane; the smoke
	// driver uses it to stop its peers).
	KindShutdown = "node.shutdown"
)

// ErrTooManyHops is returned when a submit frame exhausts its forwarding
// budget — the placement directories of the involved nodes disagree
// persistently (a bug or a torn deployment), so the event fails typed
// instead of bouncing forever.
var ErrTooManyHops error = schema.CodeTooManyHops

// ack renders a control handler's outcome as the response frame every
// control kind answers with. An error no layer gave a code reads as
// CodeUnknown: a migration that failed midway converges through its WAL, and
// the caller cannot tell how far it got.
func ack(kind string, out schema.SubmitResp, err error) (transport.Message, error) {
	if err != nil {
		out.Code, out.Err = schema.CodeOf(err), err.Error()
	}
	payload, err := out.MarshalWire(nil)
	return transport.Message{Kind: kind, Payload: payload}, err
}

// acked reads what ack wrote: the peer handler's error, nil on success.
func acked(raw transport.Message) error {
	var resp schema.SubmitResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		return err
	}
	return schema.Err(resp.Code, resp.Err)
}

// sendHot encodes one frame into a pooled buffer and sends it to a peer under
// the caller's context. No retry on failure — the outcome is ambiguous and
// events are not idempotent.
func sendHot(ctx context.Context, ep transport.Endpoint, to transport.NodeID, kind string, encode func(dst []byte) ([]byte, error)) (transport.Message, error) {
	buf := schema.GetFrameBuf()
	defer schema.PutFrameBuf(buf) // endpoints do not retain payloads past Call
	payload, err := encode((*buf)[:0])
	if err != nil {
		return transport.Message{}, err
	}
	*buf = payload
	return ep.Call(ctx, to, transport.Message{Kind: kind, Payload: payload})
}
