package node

// The node wire protocol: frames carried in transport.Message payloads over
// Mesh.Call. Submit, batch-submit, transfer and replicate-notify requests
// are hot-codec frames (schema/hotframe.go) and nothing else; store ops and
// the control plane (ping, migrate, transfer-query, transfer acks) are gob
// frames. Every exchange is strictly request/response. Handler-level
// failures travel in-band as an error kind plus message, so typed errors
// (unknown context, hop-budget exhaustion, backpressure, store version
// mismatch) survive the wire instead of flattening into strings.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/replication"
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

// Wire error kinds; mapped back to sentinel errors on the calling side.
const (
	errKindNone            = ""
	errKindApp             = "app"
	errKindUnknownContext  = "unknown-context"
	errKindUnknownMethod   = "unknown-method"
	errKindTooManyHops     = "too-many-hops"
	errKindBackpressure    = "backpressure"
	errKindClosed          = "closed"
	errKindNotLocal        = "not-local"
	errKindNotStoreNode    = "not-store-node"
	errKindNotFound        = "store-not-found"
	errKindVersionMismatch = "store-version-mismatch"
	errKindUnavailable     = "store-unavailable"
	errKindFenced          = "store-fenced"
	errKindReplicaLag      = "replica-lagging"
)

var (
	// ErrTooManyHops is returned when a submit frame exhausts its forwarding
	// budget — the placement directories of the involved nodes disagree
	// persistently (a bug or a torn deployment), so the event fails typed
	// instead of bouncing forever.
	ErrTooManyHops = errors.New("node: submit exceeded forwarding hop budget")
	// ErrNotStoreNode is returned when a store frame reaches a node that
	// does not serve the authoritative cloud store.
	ErrNotStoreNode = errors.New("node: not the store node")
	// ErrNotLocalServer is returned when a frame requires a server this
	// node does not embody (e.g. a transfer addressed to the wrong node).
	ErrNotLocalServer = errors.New("node: server not embodied by this node")
)

// storeResp is the result of a store operation: a cloudstore.Result plus the
// in-band error (the request frame is the cloudstore.Op itself). The Result
// is spelled out flat because gob compiles every nested struct type anew for
// each frame.
type storeResp struct {
	Value   []byte
	Version uint64
	Keys    []string
	Err     string
	ErrKind string
}

// transferReq ships a stopped migration group's serialized state to the
// destination node. States maps member ID to its schema.EncodeWire payload;
// members without an entry (nil state, adopted stragglers carrying factory
// state) are remapped without a state install. MinSeq is the source's
// applied replication sequence: members created at runtime exist on the
// destination only once its replica reaches their creating records, so the
// install blocks on that sequence like submit admission does.
type transferReq struct {
	Members    []ownership.ID
	From       cluster.ServerID
	To         cluster.ServerID
	TotalBytes int
	States     map[uint64][]byte
	MinSeq     uint64
}

// transferResp acknowledges a state transfer.
type transferResp struct {
	Err     string
	ErrKind string
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
	Err       string
	ErrKind   string
}

// migrateReq asks the receiving node to migrate a group it hosts.
type migrateReq struct {
	Root ownership.ID
	To   cluster.ServerID
}

// migrateResp acknowledges a commanded migration.
type migrateResp struct {
	Err     string
	ErrKind string
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
		transferResp{},
		transferQueryReq{}, transferQueryResp{},
		migrateReq{}, migrateResp{},
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

// errKindOf classifies an error for the wire.
func errKindOf(err error) string {
	switch {
	case err == nil:
		return errKindNone
	case errors.Is(err, core.ErrUnknownContext):
		return errKindUnknownContext
	case errors.Is(err, core.ErrUnknownMethod):
		return errKindUnknownMethod
	case errors.Is(err, core.ErrBackpressure):
		return errKindBackpressure
	case errors.Is(err, core.ErrClosed):
		return errKindClosed
	case errors.Is(err, core.ErrNotLocal):
		return errKindNotLocal
	case errors.Is(err, ErrTooManyHops):
		return errKindTooManyHops
	case errors.Is(err, ErrNotStoreNode):
		return errKindNotStoreNode
	case errors.Is(err, ErrNotLocalServer):
		return errKindNotLocal
	case errors.Is(err, cloudstore.ErrNotFound):
		return errKindNotFound
	case errors.Is(err, cloudstore.ErrVersionMismatch):
		return errKindVersionMismatch
	case errors.Is(err, cloudstore.ErrUnavailable):
		return errKindUnavailable
	case errors.Is(err, cloudstore.ErrFenced):
		return errKindFenced
	case errors.Is(err, replication.ErrReplicaLagging):
		return errKindReplicaLag
	default:
		return errKindApp
	}
}

// WireError reconstructs a typed error from its wire (kind, message) form,
// so callers — peer nodes and ingress clients alike — can branch with
// errors.Is across the process boundary.
func WireError(kind, msg string) error {
	var sentinel error
	switch kind {
	case errKindNone:
		return nil
	case errKindUnknownContext:
		sentinel = core.ErrUnknownContext
	case errKindUnknownMethod:
		sentinel = core.ErrUnknownMethod
	case errKindBackpressure:
		sentinel = core.ErrBackpressure
	case errKindClosed:
		sentinel = core.ErrClosed
	case errKindNotLocal:
		sentinel = core.ErrNotLocal
	case errKindTooManyHops:
		sentinel = ErrTooManyHops
	case errKindNotStoreNode:
		sentinel = ErrNotStoreNode
	case errKindNotFound:
		sentinel = cloudstore.ErrNotFound
	case errKindVersionMismatch:
		sentinel = cloudstore.ErrVersionMismatch
	case errKindUnavailable:
		sentinel = cloudstore.ErrUnavailable
	case errKindFenced:
		sentinel = cloudstore.ErrFenced
	case errKindReplicaLag:
		sentinel = replication.ErrReplicaLagging
	default:
		return errors.New(msg)
	}
	return fmt.Errorf("%s: %w", msg, sentinel)
}

// errFields renders an error into (message, kind) wire fields.
func errFields(err error) (msg, kind string) {
	if err == nil {
		return "", errKindNone
	}
	return err.Error(), errKindOf(err)
}
