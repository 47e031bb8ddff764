package core

import (
	"slices"
	"sync"
	"time"
)

// AccessMode distinguishes readonly from exclusive activation (Algorithm 1,
// accessMode).
type AccessMode int

const (
	// RO activates a context in share mode: multiple readonly events may
	// hold the same context concurrently.
	RO AccessMode = iota + 1
	// EX activates a context exclusively.
	EX
)

// String renders the mode.
func (m AccessMode) String() string {
	if m == RO {
		return "RO"
	}
	return "EX"
}

// eventLock is one context's activation state: the paper's toActivateQueue
// (FIFO waiters) plus activatedSet (current holders). Admission follows
// Algorithm 2's dispatchEvent: the queue head is admitted if it is readonly
// and no exclusive holder is active, or if the activated set is empty;
// otherwise it waits. FIFO admission gives starvation freedom — a writer is
// never overtaken by later readers.
//
// The activated set is either one exclusive holder or a set of readonly
// holders, and is stored as exactly that; event IDs start at 1.
type eventLock struct {
	mu    sync.Mutex
	ex    uint64   // exclusive holder, 0 when none
	ro    []uint64 // readonly holders, no duplicates; keeps its capacity
	queue []*waiter
}

type waiter struct {
	eventID uint64
	mode    AccessMode
	ready   chan struct{}
	// cancelled is set (before ready is closed, under the lock's mutex, so
	// the channel close publishes it) when the waiter was removed from the
	// queue instead of admitted.
	cancelled bool
}

func newEventLock() *eventLock { return new(eventLock) }

// admissible is Algorithm 2's dispatchEvent rule: readonly joins readonly
// holders, anything enters an empty activated set.
func (l *eventLock) admissible(mode AccessMode) bool {
	return l.ex == 0 && (mode == RO || len(l.ro) == 0)
}

// admit adds the event to the activated set; caller checked admissible.
func (l *eventLock) admit(eventID uint64, mode AccessMode) {
	if mode == EX {
		l.ex = eventID
	} else if !slices.Contains(l.ro, eventID) {
		l.ro = append(l.ro, eventID)
	}
}

// enqueue joins the activation queue without blocking. The queue position
// is taken synchronously, so ordering established by the caller (e.g. a
// crabbed parent still being held) is preserved even though admission is
// awaited later. Returns:
//
//	(nil, false) — the event already holds the context (re-entrant)
//	(nil, true)  — admitted synchronously (uncontended fast path; no
//	               waiter was allocated)
//	(w, false)   — queued; block on w via waitAdmitted
func (l *eventLock) enqueue(eventID uint64, mode AccessMode) (*waiter, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ex == eventID || slices.Contains(l.ro, eventID) {
		return nil, false
	}
	// Fast path: nobody queued ahead and the admission rule of pump() holds
	// right now — admit without allocating a waiter and its channel. This
	// is the common case for events on disjoint subtrees and keeps the
	// per-event hot path allocation-free here.
	if len(l.queue) == 0 && l.admissible(mode) {
		l.admit(eventID, mode)
		return nil, true
	}
	w := &waiter{eventID: eventID, mode: mode, ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.pump()
	return w, false
}

// acquire blocks until the event holds the context in the given mode.
// It returns false if the event already held the context (re-entrant; no
// state change), and an error only if the optional timeout fires.
func (l *eventLock) acquire(eventID uint64, mode AccessMode, timeout time.Duration) (bool, error) {
	w, admitted := l.enqueue(eventID, mode)
	if w == nil {
		return admitted, nil
	}

	if timeout <= 0 {
		if !l.waitAdmitted(w) {
			return false, ErrAcquireTimeout
		}
		return true, nil
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-w.ready:
		if w.cancelled {
			return false, ErrAcquireTimeout
		}
		return true, nil
	case <-timer.C:
		// Remove ourselves from the queue if still waiting; we may have
		// been admitted in the race, in which case we keep the lock.
		l.mu.Lock()
		for i, qw := range l.queue {
			if qw == w {
				l.dequeue(i)
				l.mu.Unlock()
				return false, ErrAcquireTimeout
			}
		}
		l.mu.Unlock()
		if !l.waitAdmitted(w) {
			return false, ErrAcquireTimeout
		}
		return true, nil
	}
}

// release drops the event's hold (or its pending queue entry, if the event
// was enqueued but never admitted — e.g. an aborted crab) and admits queued
// waiters.
func (l *eventLock) release(eventID uint64) {
	l.mu.Lock()
	if l.ex == eventID {
		l.ex = 0
		l.pump()
	} else if i := slices.Index(l.ro, eventID); i >= 0 {
		last := len(l.ro) - 1
		l.ro[i] = l.ro[last]
		l.ro = l.ro[:last]
		l.pump()
	} else {
		for i, w := range l.queue {
			if w.eventID == eventID {
				l.dequeue(i)
				w.cancelled = true
				close(w.ready)
				l.pump()
				break
			}
		}
	}
	l.mu.Unlock()
}

// dequeue removes queue[i], keeping FIFO order. The vacated tail slot is
// cleared so the backing array (which a hot context never reallocates) does
// not keep the waiter and its channel reachable; caller holds l.mu.
func (l *eventLock) dequeue(i int) {
	last := len(l.queue) - 1
	copy(l.queue[i:], l.queue[i+1:])
	l.queue[last] = nil
	l.queue = l.queue[:last]
}

// waitAdmitted blocks until the waiter is admitted; it returns false when
// the waiter was cancelled by release instead.
func (l *eventLock) waitAdmitted(w *waiter) bool {
	<-w.ready
	return !w.cancelled
}

// pump admits queue heads per Algorithm 2; caller holds l.mu.
func (l *eventLock) pump() {
	for len(l.queue) > 0 && l.admissible(l.queue[0].mode) {
		head := l.queue[0]
		l.admit(head.eventID, head.mode)
		l.queue[0] = nil // see dequeue
		l.queue = l.queue[1:]
		close(head.ready)
	}
}
