package node

// The node wire protocol: frames carried in transport.Message payloads, each
// one a transport.Endpoint Call (or one request of a CallBatch) — on a TCP
// mesh all of them share the endpoint's one connection to the peer. Submit,
// batch-submit, transfer and replicate-notify requests are hot-codec frames
// (schema/hotframe.go) and nothing else; store ops and the control plane
// (ping, migrate, transfer-query, transfer acks) are gob payloads. Every
// exchange is request/response. Handler-level failures travel in-band as a
// schema.Code plus message. The sentinels are
// their codes (schema/errors.go), so there is nothing to map at either end:
// the sender reads the code out of the error chain, the receiver rebuilds
// the error with schema.Err, and errors.Is holds across the wire.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/ownership"
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
	// KindStore performs one cloud-store operation on a store replica: the
	// request is a gob-encoded cloudstore.Op, the response a storeResp.
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

// storeResp is the result of a store operation: a cloudstore.Result plus the
// in-band error (the request frame is the cloudstore.Op itself). The Result
// is spelled out flat because gob compiles every nested struct type anew for
// each frame.
type storeResp struct {
	Value   []byte
	Version uint64
	Keys    []string
	Err     string
	Code    schema.Code
}

// ackResp acknowledges a state transfer or a commanded migration: the
// handler's error in-band, zero on success.
type ackResp struct {
	Err  string
	Code schema.Code
}

// ackOf renders a control handler's outcome. An error no layer gave a code
// reads as CodeUnknown: a migration that failed midway converges through
// its WAL, and the caller cannot tell how far it got.
func ackOf(err error) ackResp {
	if err == nil {
		return ackResp{}
	}
	return ackResp{Err: err.Error(), Code: schema.CodeOf(err)}
}

// transferQueryReq probes whether the destination committed a transfer:
// Probe is the group's root (first member), To the destination server.
type transferQueryReq struct {
	Probe ownership.ID
	To    cluster.ServerID
}

// transferQueryResp answers a commit probe.
type transferQueryResp struct {
	Committed bool
}

// migrateReq asks the receiving node to migrate a group it hosts.
type migrateReq struct {
	Root ownership.ID
	To   cluster.ServerID
}

// pingResp reports liveness.
type pingResp struct {
	Node transport.NodeID
}

func init() {
	// Node wire frames travel through the shared registry like every other
	// cross-process payload.
	schema.RegisterWireTypes(
		cloudstore.Op{}, storeResp{},
		ackResp{},
		transferQueryReq{}, transferQueryResp{},
		migrateReq{},
		pingResp{},
	)
}

// encodeFrame gob-encodes one wire frame.
func encodeFrame(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("node: encode frame %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// gobBufPool recycles encode buffers on the gob control path: mesh endpoints
// do not retain request payloads after Call returns, so a caller can encode
// into a pooled buffer, send, and return the buffer — one steady-state
// allocation fewer per control frame.
var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeFramePooled gob-encodes v into a pooled buffer. The returned bytes
// alias the buffer: release it with releaseFrameBuf only after the payload is
// no longer referenced (for mesh calls, after Call returns).
func encodeFramePooled(v any) (*bytes.Buffer, []byte, error) {
	buf := gobBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		gobBufPool.Put(buf)
		return nil, nil, fmt.Errorf("node: encode frame %T: %w", v, err)
	}
	return buf, buf.Bytes(), nil
}

// releaseFrameBuf recycles a buffer from encodeFramePooled.
func releaseFrameBuf(buf *bytes.Buffer) {
	if buf == nil || buf.Cap() > 1<<20 {
		return // don't let one huge transfer pin a huge buffer in the pool
	}
	gobBufPool.Put(buf)
}

// decodeFrame decodes a wire frame into out (a pointer).
func decodeFrame(b []byte, out any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(out); err != nil {
		return fmt.Errorf("node: decode frame %T: %w", out, err)
	}
	return nil
}
