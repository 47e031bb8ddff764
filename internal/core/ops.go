package core

import "aeon/internal/ops"

// queued reports the events currently sitting on executor queues across
// every server pool (a point-in-time gauge; pools are read without locks,
// exactly as precise as channel lengths can be).
func (e *executor) queued() int {
	n := 0
	e.pools.Range(func(_, v any) bool {
		n += len(v.(*serverPool).queue)
		return true
	})
	return n
}

// RegisterOps registers the runtime's hot-path metrics on an ops registry:
// the end-to-end latency histogram (merged on read), completion and
// error counters, and an executor queue-depth gauge. Call once per process
// after the runtime is built; registration adds nothing to the hot path.
func (r *Runtime) RegisterOps(reg *ops.Registry) {
	reg.Histogram("aeon_event_latency_seconds",
		"End-to-end latency of locally executed events.", nil, &r.Latency)
	reg.Counter("aeon_events_completed_total",
		"Events completed by this runtime.", nil, r.Completed.Value)
	reg.Counter("aeon_subevent_errors_total",
		"Asynchronous sub-events that failed with no caller to report to.", nil, r.SubEventErrors.Value)
	reg.Counter("aeon_backpressure_total",
		"Asynchronous submissions rejected because their server's executor queue was full.", nil, r.Backpressure.Value)
	reg.Counter("aeon_activation_waits_total",
		"Activations that queued behind another event.", nil, r.ActivationWaits.Value)
	reg.Histogram("aeon_activation_wait_seconds",
		"How long each activation counted by aeon_activation_waits_total queued.", nil, &r.ActivationWait)
	reg.Gauge("aeon_exec_queue_depth",
		"Events waiting on executor queues across all server pools.", nil,
		func() float64 { return float64(r.exec.queued()) })
	reg.Gauge("aeon_servers",
		"Servers in this runtime's cluster view.", nil,
		func() float64 { return float64(len(r.Cluster().Servers())) })
	reg.Readiness("runtime", func() error {
		if r.closed.Load() {
			return ErrClosed
		}
		return nil
	})
}
