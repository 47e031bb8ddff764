package node

// The node's half of the observability plane (internal/ops): registerOps
// wires every subsystem the node owns — its own submit/forward/batch
// counters and latency histograms, the runtime, the transport mux, the
// replication plane, the migration engine, and the store plane — onto the
// process registry, all pull-based so scraping merges the striped
// primitives on read and the hot path pays nothing. emit/span are the event
// hooks the handlers call; both are no-ops when the plane is off.

import (
	"errors"
	"strconv"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/ops"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Ops returns the node's observability registry (nil when the plane is off).
func (n *Node) Ops() *ops.Registry { return n.ops }

var errNodeShutdown = errors.New("node shut down")

func (n *Node) registerOps() {
	reg := n.ops

	reg.Counter("aeon_node_submits_executed_total",
		"Submitted events this node executed locally.", nil, n.executed.Load)
	reg.Counter("aeon_node_submits_forwarded_total",
		"Submits this node forwarded to the hosting peer.", nil, n.forwarded.Load)
	reg.Counter("aeon_node_batch_frames_total",
		"Submit frames this node handled, frames of one included.", nil, n.batches.Load)
	reg.Counter("aeon_node_batch_events_total",
		"Events carried by handled submit frames.", nil, n.batchEvents.Load)
	reg.Counter("aeon_node_transfers_in_total",
		"Migration state transfers installed on this node.", nil, n.transfersIn.Load)
	reg.Counter("aeon_node_transfers_out_total",
		"Migration state transfers shipped from this node.", nil, n.transfersOut.Load)
	for c := schema.CodeApp; c < schema.NumCodes; c++ {
		reg.Counter("aeon_errors_total",
			"Submit outcomes that failed on this node or on a hop from it, by error code.",
			ops.Labels{"code": c.Name()}, n.errs[c].Load)
	}
	reg.Histogram("aeon_node_submit_seconds",
		"Handler latency of locally executed frames of one event.", nil, &n.submitLat)
	reg.Histogram("aeon_node_forward_seconds",
		"Round-trip latency of forwarded submit frames.", nil, &n.forwardLat)
	reg.Histogram("aeon_node_batch_seconds",
		"Handler latency of submit frames of more than one event.", nil, &n.batchLat)
	reg.Readiness("node", func() error {
		select {
		case <-n.shutdownCh:
			return errNodeShutdown
		default:
			return nil
		}
	})

	n.rt.RegisterOps(reg)

	// Transport mux internals are process-wide atomics (one node per
	// process in real deployments).
	reg.Counter("aeon_mux_dropped_responses_total",
		"Late or duplicated mux responses dropped by the slot-table generation check.", nil,
		func() uint64 { return transport.ReadMuxStats().DroppedResponses })
	reg.Counter("aeon_mux_frames_written_total",
		"Mux frames, requests and responses, this process has written.", nil,
		func() uint64 { return transport.ReadMuxStats().FramesWritten })
	reg.Counter("aeon_mux_socket_writes_total",
		"Socket writes that carried those frames; frames per write is how well senders coalesce.", nil,
		func() uint64 { return transport.ReadMuxStats().SocketWrites })
	reg.Counter("aeon_mux_socket_reads_total",
		"Read syscalls of the mux read loops, those that found the socket empty included; about one per arrival.", nil,
		func() uint64 { return transport.ReadMuxStats().SocketReads })
	reg.Gauge("aeon_mux_slots_in_use",
		"Occupied mux completion slots across open streams.", nil,
		func() float64 { return float64(transport.ReadMuxStats().SlotsInUse) })
	reg.Gauge("aeon_mux_streams_open",
		"Live mux streams in this process.", nil,
		func() float64 { return float64(transport.ReadMuxStats().StreamsOpen) })

	if n.plane != nil {
		reg.Gauge("aeon_replication_applied_seq",
			"Mutation-log sequence applied by the local replica.", nil,
			func() float64 { return float64(n.plane.Applied()) })
		reg.Gauge("aeon_replication_head_seq",
			"Highest mutation-log sequence this replica knows exists.", nil,
			func() float64 { return float64(n.plane.Head()) })
		reg.Gauge("aeon_replication_lag",
			"Known mutation-log records not yet applied locally (head - applied).", nil,
			func() float64 { return float64(n.plane.Head() - n.plane.Applied()) })
		reg.Counter("aeon_replication_appends_total",
			"Mutation-log records appended by this node.", nil, n.plane.Appends)
		reg.Counter("aeon_replication_conflicts_total",
			"CAS append conflicts (sequence races lost and retried).", nil, n.plane.Conflicts)
		reg.Counter("aeon_replication_applies_total",
			"Mutation-log records applied by this replica.", nil, n.plane.Applies)
		reg.Counter("aeon_replication_notifies_total",
			"Replicate-notify hints received.", nil, n.plane.Notified)
		reg.Readiness("replication", n.plane.LastError)
	}

	eng := n.mgr.Engine()
	reg.Counter("aeon_migration_groups_total",
		"Completed group migrations.", nil, eng.Groups.Value)
	reg.Counter("aeon_migration_members_total",
		"Contexts moved by group migrations.", nil, eng.Members.Value)
	reg.Counter("aeon_migration_stop_windows_total",
		"Group stop windows taken.", nil, eng.StopWindows.Value)
	reg.Counter("aeon_migration_stop_retries_total",
		"Preempted group stop attempts.", nil, eng.StopRetries.Value)
	reg.Counter("aeon_migration_recovered_total",
		"Groups rolled forward by WAL recovery.", nil, eng.Recovered.Value)
	reg.Counter("aeon_migration_bytes_moved_total",
		"State bytes shipped by migrations.", nil, eng.BytesMoved.Value)
	reg.Histogram("aeon_migration_group_seconds",
		"Wall time per group migration.", nil, &eng.GroupTime)
	reg.Histogram("aeon_migration_stop_seconds",
		"Full-stop window duration per group migration (event unavailability).", nil, &eng.StopTime)

	reg.Histogram("aeon_store_op_seconds",
		"Round trip of cloud-store operations this node sent to a store replica, failed ones included.", nil, &n.storeLat)
	if part, ok := n.store.(*cloudstore.Partitioned); ok {
		for i := 0; i < part.Parts(); i++ {
			rep, ok := part.Partition(i).(*cloudstore.Replicated)
			if !ok {
				continue
			}
			lbl := ops.Labels{"part": strconv.Itoa(rep.Part())}
			reg.Gauge("aeon_store_fence_epoch",
				"Fence epoch of this node's view of the partition.", lbl,
				func() float64 { e, _ := rep.View(); return float64(e) })
			reg.Counter("aeon_store_fence_advances_total",
				"Fence-epoch advances (failovers) this node observed.", lbl, rep.FenceAdvances)
			reg.Counter("aeon_store_quorum_failures_total",
				"Writes and fence spreads refused for lack of a replica majority.", lbl, rep.QuorumFailures)
			rep.SetOnFenceAdvance(func(partIdx int, epoch uint64) {
				reg.Emit("store.fence_advance", map[string]any{
					"node": int64(n.id), "part": partIdx, "epoch": epoch,
				})
			})
		}
	}
}

// emit publishes a structural event when the ops plane is on.
func (n *Node) emit(typ string, fields map[string]any) {
	if n.ops != nil {
		n.ops.Emit(typ, fields)
	}
}

// span records one per-hop trace span of a traced submit frame's execute or
// forward step: a frame of one names its event, a larger frame its batch-*
// action and the number of events the step covered. A no-op for untraced
// frames or with the plane off, so the hot path never builds the fields map.
func (n *Node) span(req *schema.SubmitBatchReq, action string, events int, d time.Duration) {
	if n.ops == nil || req.Trace == 0 {
		return
	}
	target, method := ownership.ID(events), ""
	if len(req.Events) == 1 {
		target, method = req.Events[0].Target, req.Events[0].Method
	} else {
		action = "batch-" + action
	}
	n.ops.Span(req.Trace, int64(n.id), action, uint64(target), method, int(req.Hops), d)
}
