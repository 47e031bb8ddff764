package ops

import (
	"fmt"
	"sync"
	"time"
)

// Event is one structural occurrence (migration start/commit, fence advance,
// backpressure onset, route repair, trace span). Fields are small and
// flat — the ring holds them by value.
type Event struct {
	Seq    uint64         `json:"seq"`
	Time   time.Time      `json:"ts"`
	Type   string         `json:"type"`
	Fields map[string]any `json:"fields,omitempty"`
}

// ring is a bounded event buffer. Emitters never block: when the ring wraps,
// the oldest events are overwritten and slow consumers observe a dropped
// count the next time they read — shedding, not backpressure.
type ring struct {
	mu     sync.Mutex
	buf    []Event
	next   uint64        // seq to assign to the next event
	notify chan struct{} // closed and replaced on every emit
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]Event, capacity), notify: make(chan struct{})}
}

// Emit appends one structural event to the ring. Cheap and non-blocking
// (one short critical section, no I/O); safe from any goroutine.
func (r *Registry) Emit(typ string, fields map[string]any) {
	rg := r.ring
	rg.mu.Lock()
	rg.buf[rg.next%uint64(len(rg.buf))] = Event{Seq: rg.next, Time: time.Now(), Type: typ, Fields: fields}
	rg.next++
	close(rg.notify)
	rg.notify = make(chan struct{})
	rg.mu.Unlock()
}

// EventsSince copies out every buffered event with seq >= from. When the
// ring has lapped the caller, dropped reports how many events were shed and
// the copy starts at the oldest retained event. next is the cursor to pass
// on the following call; wait is closed on the next emit (poll-free follow).
func (r *Registry) EventsSince(from uint64) (events []Event, dropped uint64, next uint64, wait <-chan struct{}) {
	rg := r.ring
	rg.mu.Lock()
	defer rg.mu.Unlock()
	capacity := uint64(len(rg.buf))
	oldest := uint64(0)
	if rg.next > capacity {
		oldest = rg.next - capacity
	}
	if from < oldest {
		dropped = oldest - from
		from = oldest
	}
	if from < rg.next {
		events = make([]Event, 0, rg.next-from)
		for s := from; s < rg.next; s++ {
			events = append(events, rg.buf[s%capacity])
		}
	}
	return events, dropped, rg.next, rg.notify
}

// EventSeq returns the sequence number the next emitted event will get.
func (r *Registry) EventSeq() uint64 {
	r.ring.mu.Lock()
	defer r.ring.mu.Unlock()
	return r.ring.next
}

// TraceHex renders an 8-byte trace ID the way span events and logs show it.
func TraceHex(trace uint64) string { return fmt.Sprintf("%016x", trace) }

// Span emits one per-hop trace span record into the event feed. action says
// what the node did with the traced frame ("execute", "forward",
// "batch-execute", "batch-forward"); hop is the frame's hop count when the
// node saw it, so a client → node A → node B submit yields hop 0 and hop 1
// spans under one trace.
func (r *Registry) Span(trace uint64, node int64, action string, target uint64, method string, hop int, d time.Duration) {
	r.Emit("trace.span", map[string]any{
		"trace":  TraceHex(trace),
		"node":   node,
		"action": action,
		"target": target,
		"method": method,
		"hop":    hop,
		"us":     d.Microseconds(),
	})
}
