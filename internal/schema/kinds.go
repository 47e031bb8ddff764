package schema

// The node wire protocol: frames carried in transport.Message payloads, each
// one a transport.Endpoint Call (or one request of a CallBatch) — on a TCP
// mesh all of them share the endpoint's one connection to the peer. Every
// exchange is request/response, and every payload is a hot-codec frame
// (hotframe.go) or empty; a payload that is anything else is a decode error
// (ErrHotFrame), not a second protocol. Every event rides one submit frame
// kind: a lone event, a client's or a forward's, is a frame of one.
//
//	kind                  request          response
//	node.submit.batch     SubmitBatchReq   SubmitBatchResp
//	node.store            cloudstore.Op    cloudstore.Reply
//	node.transfer         TransferRec      SubmitResp (Code, Err)
//	node.transfer.query   PlaceReq         SubmitResp (Result: committed)
//	node.migrate          PlaceReq         SubmitResp (Code, Err)
//	node.ping             empty            SubmitResp (Host: the peer's ID)
//	node.replicate.notify NotifyRec        empty
//	node.shutdown         empty            empty
//
// Handler-level failures travel in-band as a Code plus message. The sentinels
// are their codes (errors.go), so there is nothing to map at either end: the
// sender reads the code out of the error chain, the receiver rebuilds the
// error with Err, and errors.Is holds across the wire.

// Frame kinds, routed by transport.Message.Kind.
const (
	// KindPing checks liveness and readiness of a peer.
	KindPing = "node.ping"
	// KindSubmitBatch submits (or forwards) independent events, one or
	// many, in one frame: one admission, one response, per-event outcomes
	// (SubmitBatchReq/Resp).
	KindSubmitBatch = "node.submit.batch"
	// KindStore performs one cloud-store operation on a store replica.
	KindStore = "node.store"
	// KindTransfer installs a migrated group's state on the destination
	// node (migration protocol step IV over the mesh).
	KindTransfer = "node.transfer"
	// KindTransferQuery asks a destination whether it places the group on
	// itself. Only deployments without the replication log send it: their
	// destination does so as it installs the state, and the source uses the
	// query to resolve a lost transfer ack — without it, a dropped response
	// would leave the destination live while the source aborted, two
	// authoritative copies. With the log only the source's move record
	// places the group, so the source aborts without asking.
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
