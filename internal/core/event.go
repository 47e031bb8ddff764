package core

import (
	"sync"
	"sync/atomic"

	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// inlineFrames is the handler nesting depth an event serves from its own
// frame array before falling back to the heap.
const inlineFrames = 8

// event is one in-flight AEON event (Algorithm 1's Event plus the runtime
// bookkeeping: held contexts in acquisition order, handler frames,
// outstanding asynchronous calls, and sub-events dispatched within it).
type event struct {
	id     uint64
	mode   AccessMode
	target ownership.ID
	method string

	// forked is set by the event's first Async or Crab, before the goroutine
	// it starts. Until then the event runs on one goroutine and touches held
	// and subs without mu; from then on every access takes it (lock). The
	// flag is written once, while the event is still single-goroutine, and
	// every later reader was started after that write.
	forked bool
	mu     sync.Mutex
	held   []heldEntry // acquisition order; capacity survives the pool
	subs   []subEvent
	// crabs counts the contexts this event has crabbed; events that never
	// crab skip the crab bookkeeping on every call and handler return.
	crabs atomic.Int32

	// frames is the handler call stack of the event's first goroutine: Sync
	// calls nest, so a frame is free again when its handler returns. Only
	// that goroutine touches it; a forked event's branches take heap frames.
	frames  [inlineFrames]callEnv
	nframes int

	args []schema.Value // Submit's arguments, converted; cleared at End

	asyncWG sync.WaitGroup
}

// heldEntry records one context hold inline in the event (no per-hold heap
// allocation; lookups are linear scans — events hold a handful of contexts).
// Pointers into e.held are never retained across an append.
type heldEntry struct {
	ctx      *Context
	released bool // crab-released early
	crabbed  bool // no further calls may route through this context
}

type subEvent struct {
	target ownership.ID
	method string
	args   []schema.Value
}

// eventPool recycles event records: at ~1M events/s the allocation churn
// alone throttles multi-core scaling (GC sweep serializes on runtime-internal
// locks). A Frame takes one record on its first Run, runs every one of its
// events in it — reset before each, cleared after — and returns it at End.
var eventPool = sync.Pool{New: func() any { return new(event) }}

func newEvent(id uint64, mode AccessMode, target ownership.ID, method string) *event {
	e := eventPool.Get().(*event)
	e.reset(id, mode, target, method)
	return e
}

// reset readies a cleared record for the next event.
func (e *event) reset(id uint64, mode AccessMode, target ownership.ID, method string) {
	e.id = id
	e.mode = mode
	e.target = target
	e.method = method
	e.forked = false
	if e.crabs.Load() != 0 { // a store is a locked exchange; most events never crab
		e.crabs.Store(0)
	}
	e.nframes = 0
}

// clear drops what a finished event references, so an idle record pins no
// context or sub-event argument. The caller must guarantee no goroutine still
// references the event (all async calls joined, subs launched).
func (e *event) clear() {
	clear(e.held)
	e.held = e.held[:0]
	e.subs = nil
}

// lock and unlock guard held and subs once the event has forked.
func (e *event) lock() {
	if e.forked {
		e.mu.Lock()
	}
}

func (e *event) unlock() {
	if e.forked {
		e.mu.Unlock()
	}
}

// fork marks the event concurrent, before an Async or Crab goroutine starts.
func (e *event) fork() {
	if !e.forked {
		e.forked = true
	}
}

// pushFrame returns the frame one handler invocation executes in.
func (e *event) pushFrame() *callEnv {
	if e.forked || e.nframes == len(e.frames) {
		return new(callEnv)
	}
	f := &e.frames[e.nframes]
	e.nframes++
	f.inline = true
	return f
}

// popFrame retires a frame when its handler has returned.
func (e *event) popFrame(f *callEnv) {
	if f.inline {
		*f = callEnv{}
		e.nframes--
	}
}

// find returns the hold entry for a context, or nil. Caller holds the event
// lock; the pointer must not be kept across any mutation of e.held.
func (e *event) find(id ownership.ID) *heldEntry {
	for i := range e.held {
		if e.held[i].ctx.id == id {
			return &e.held[i]
		}
	}
	return nil
}

// holds reports whether the event currently holds the context (and has not
// crab-released it).
func (e *event) holds(id ownership.ID) bool {
	e.lock()
	defer e.unlock()
	h := e.find(id)
	return h != nil && !h.released
}

// crabbedCtx reports whether the event crab-released the context.
func (e *event) crabbedCtx(id ownership.ID) bool {
	if e.crabs.Load() == 0 {
		return false
	}
	e.lock()
	defer e.unlock()
	h := e.find(id)
	return h != nil && h.crabbed
}

// recordHold registers a newly acquired context. It returns false when the
// context was already recorded, which only a forked event can see (a race
// between two async branches on a common child).
func (e *event) recordHold(c *Context) bool {
	e.lock()
	if e.forked && e.find(c.id) != nil {
		e.unlock()
		return false
	}
	e.held = append(e.held, heldEntry{ctx: c})
	e.unlock()
	return true
}

// markCrab flags the context as crabbed: no further calls may route through
// it, and its activation is dropped as soon as its current handler returns.
func (e *event) markCrab(id ownership.ID) bool {
	e.lock()
	defer e.unlock()
	h := e.find(id)
	if h == nil || h.crabbed {
		return false
	}
	h.crabbed = true
	e.crabs.Add(1)
	return true
}

// markCrabReleasable atomically claims the early release of a crabbed
// context: it reports true exactly once, after Crab was called and before
// event termination.
func (e *event) markCrabReleasable(id ownership.ID) bool {
	if e.crabs.Load() == 0 {
		return false
	}
	e.lock()
	defer e.unlock()
	h := e.find(id)
	if h == nil || !h.crabbed || h.released {
		return false
	}
	h.released = true
	return true
}

// releaseAll releases every still-held context in reverse acquisition order
// (§ 4: "locks on the contexts accessed during an event are released in the
// reverse order on which they are locked"), in place: every branch is joined.
func (e *event) releaseAll() {
	for i := len(e.held) - 1; i >= 0; i-- {
		if h := &e.held[i]; !h.released {
			h.released = true
			h.ctx.lock.release(e.id)
		}
	}
}

// addSub queues a sub-event for dispatch after completion.
func (e *event) addSub(target ownership.ID, method string, args []schema.Value) {
	e.lock()
	defer e.unlock()
	e.subs = append(e.subs, subEvent{target: target, method: method, args: args})
}

// Future is the client-side handle of an asynchronous event submission.
type Future struct {
	done chan struct{}
	res  any
	err  error
}

func newFuture() *Future {
	return &Future{done: make(chan struct{})}
}

func (f *Future) complete(res any, err error) {
	f.res = res
	f.err = err
	close(f.done)
}

// Wait blocks until the event completes and returns its result.
func (f *Future) Wait() (any, error) {
	<-f.done
	return f.res, f.err
}

// Done returns a channel closed when the event completes.
func (f *Future) Done() <-chan struct{} { return f.done }
