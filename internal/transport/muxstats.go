package transport

import "sync/atomic"

// Process-wide mux-stream instrumentation. Kept as package-level atomics so
// the hot paths (deliver, acquire/release, flush) pay an uncontended atomic
// or two each and the ops plane can read them without threading a registry
// through every endpoint. In a normal deployment one process hosts one node, so
// process-wide equals per-node.
var (
	muxDroppedResponses atomic.Uint64
	muxSlotsInUse       atomic.Int64
	muxStreamsOpen      atomic.Int64
	muxFramesWritten    atomic.Uint64
	muxSocketWrites     atomic.Uint64
	muxSocketReads      atomic.Uint64
)

// MuxStats is a snapshot of the process-wide mux internals.
type MuxStats struct {
	// DroppedResponses counts late or duplicated responses that arrived for
	// a correlation ID with no parked caller (slot re-armed or already
	// completed). Before this counter they vanished silently in the
	// slot-table generation check.
	DroppedResponses uint64
	// SlotsInUse is the current number of occupied completion slots across
	// every open mux stream (per-stream occupancy is bounded by MuxWindow).
	SlotsInUse int64
	// StreamsOpen is the current number of live mux streams.
	StreamsOpen int64
	// FramesWritten counts the frames, requests and responses alike, this
	// process has written, and SocketWrites the writes that carried them.
	FramesWritten uint64
	SocketWrites  uint64
	// SocketReads counts the read syscalls of the mux read loops, those that
	// found the socket empty included.
	SocketReads uint64
}

// ReadMuxStats returns the current process-wide mux counters.
func ReadMuxStats() MuxStats {
	return MuxStats{
		DroppedResponses: muxDroppedResponses.Load(),
		SlotsInUse:       muxSlotsInUse.Load(),
		StreamsOpen:      muxStreamsOpen.Load(),
		FramesWritten:    muxFramesWritten.Load(),
		SocketWrites:     muxSocketWrites.Load(),
		SocketReads:      muxSocketReads.Load(),
	}
}
