package core

import (
	"slices"
	"sync"
	"sync/atomic"
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
//
// While no event shares the context or waits for it, the whole state is the
// one word thin: 0 idle, or the ID of the exclusive holder admitted into the
// idle lock. An exclusive admission into an idle lock is CAS(0→id), its
// release CAS(id→0), and neither takes mu. Everything else takes mu through
// lock, which inflates — thin becomes lockInflated and its holder moves into
// ex — so the fields below are the state for as long as mu is held, and
// unlock deflates again (thin ← ex) once no readonly holder and no waiter
// remain. The thin path admits only into a lock with no holder and no queue,
// so it can overtake nobody: FIFO admission is the mutex path's alone.
type eventLock struct {
	thin  atomic.Uint64
	mu    sync.Mutex
	ex    uint64   // exclusive holder, 0 when none
	ro    []uint64 // readonly holders, no duplicates; keeps its capacity
	queue []*waiter
}

// lockInflated in eventLock.thin says the state lives in ex, ro and queue.
// Event IDs count up from 1 and never reach bit 63.
const lockInflated = 1 << 63

type waiter struct {
	eventID uint64
	mode    AccessMode
	ready   chan struct{}
	// cancelled is set (before ready is closed, under the lock's mutex, so
	// the channel close publishes it) when the waiter was removed from the
	// queue instead of admitted.
	cancelled bool
}

// lock takes mu and inflates: a thin holder — one may be admitted or released
// by a racing CAS until the word reads lockInflated — moves into ex.
func (l *eventLock) lock() {
	l.mu.Lock()
	for t := l.thin.Load(); t != lockInflated; t = l.thin.Load() {
		if l.thin.CompareAndSwap(t, lockInflated) {
			l.ex = t
		}
	}
}

// unlock deflates when one word can say it all again, and drops mu.
func (l *eventLock) unlock() {
	if len(l.ro) == 0 && len(l.queue) == 0 {
		t := l.ex
		l.ex = 0
		l.thin.Store(t)
	}
	l.mu.Unlock()
}

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
	if mode == EX && l.thin.CompareAndSwap(0, eventID) {
		return nil, true
	}
	if l.thin.Load() == eventID {
		return nil, false
	}
	l.lock()
	defer l.unlock()
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

// acquire blocks until the event holds the context in the given mode. first
// is false if the event already held the context (re-entrant; no state
// change). waited is how long the event queued behind another: zero if it was
// admitted without queuing, at least a nanosecond if it queued — the clock is
// read only then. The error is non-nil only if the optional timeout fires.
func (l *eventLock) acquire(eventID uint64, mode AccessMode, timeout time.Duration) (first bool, waited time.Duration, err error) {
	w, admitted := l.enqueue(eventID, mode)
	if w == nil {
		return admitted, 0, nil
	}
	start := Now()
	first = true
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-w.ready:
		case <-timer.C:
			// Remove ourselves from the queue if still waiting; we may have
			// been admitted in the race, in which case we keep the lock.
			// Whoever queued behind us may be admissible once we no longer
			// stand between it and the holders.
			l.lock()
			i := slices.Index(l.queue, w)
			if i >= 0 {
				l.dequeue(i)
				l.pump()
			}
			l.unlock()
			if i >= 0 {
				first, err = false, ErrAcquireTimeout
			}
		}
	}
	if first && !l.waitAdmitted(w) {
		first, err = false, ErrAcquireTimeout
	}
	return first, max(Since(start), 1), err
}

// release drops the event's hold (or its pending queue entry, if the event
// was enqueued but never admitted — e.g. an aborted crab) and admits queued
// waiters.
func (l *eventLock) release(eventID uint64) {
	if l.thin.CompareAndSwap(eventID, 0) {
		return
	}
	l.lock()
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
	l.unlock()
}

// dequeue removes queue[i], keeping FIFO order. The vacated tail slot is
// cleared so the backing array (which a hot context never reallocates) does
// not keep the waiter and its channel reachable; caller holds the lock.
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

// pump admits queue heads per Algorithm 2; caller holds the lock.
func (l *eventLock) pump() {
	for len(l.queue) > 0 && l.admissible(l.queue[0].mode) {
		head := l.queue[0]
		l.admit(head.eventID, head.mode)
		l.queue[0] = nil // see dequeue
		l.queue = l.queue[1:]
		close(head.ready)
	}
}
