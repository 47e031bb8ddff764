package transport

import (
	"context"
	"fmt"
	"sync"

	"aeon/internal/schema"
)

// ErrDropped is returned when a fault-injecting mesh drops a call: the
// request was lost before reaching the destination handler. Callers must
// treat it like a timed-out call — the operation did not happen.
var ErrDropped error = schema.CodeLinkDropped

// FaultyMesh wraps another Mesh and injects message-level faults for tests:
// directed links can drop calls (the request never reaches the handler) or
// duplicate them (the handler runs twice; the caller sees the first
// response). Faults are configured per directed (from, to) pair, so a test
// can partition one direction while the reverse stays healthy, exactly like
// an asymmetric network failure.
type FaultyMesh struct {
	inner Mesh

	mu        sync.Mutex
	drop      map[[2]NodeID]bool
	dup       map[[2]NodeID]int // remaining duplications on the link
	dropReply map[[2]NodeID]int // remaining lost-ack deliveries on the link
}

var _ Mesh = (*FaultyMesh)(nil)

// NewFaultyMesh wraps inner with fault injection. With no faults configured
// it is transparent.
func NewFaultyMesh(inner Mesh) *FaultyMesh {
	return &FaultyMesh{
		inner:     inner,
		drop:      make(map[[2]NodeID]bool),
		dup:       make(map[[2]NodeID]int),
		dropReply: make(map[[2]NodeID]int),
	}
}

// Drop makes every call from→to fail with ErrDropped until Heal.
func (m *FaultyMesh) Drop(from, to NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drop[[2]NodeID{from, to}] = true
}

// Heal removes the drop fault on from→to.
func (m *FaultyMesh) Heal(from, to NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.drop, [2]NodeID{from, to})
}

// Duplicate makes the next n calls from→to deliver twice (at-least-once
// delivery): the destination handler runs for both copies, the caller
// receives the first response.
func (m *FaultyMesh) Duplicate(from, to NodeID, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dup[[2]NodeID{from, to}] = n
}

// DropReply makes the next n calls from→to deliver — the destination
// handler runs and commits its effects — but lose the response: the caller
// sees ErrDropped. This is the "lost ack" failure that distinguishes
// at-least-once commit ambiguity from a plain dropped request.
func (m *FaultyMesh) DropReply(from, to NodeID, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropReply[[2]NodeID{from, to}] = n
}

// Attach implements Mesh.
func (m *FaultyMesh) Attach(id NodeID, h Handler) (Endpoint, error) {
	ep, err := m.inner.Attach(id, h)
	if err != nil {
		return nil, err
	}
	return &faultyEndpoint{mesh: m, inner: ep}, nil
}

type faultyEndpoint struct {
	mesh  *FaultyMesh
	inner Endpoint
}

var _ Endpoint = (*faultyEndpoint)(nil)

func (e *faultyEndpoint) ID() NodeID { return e.inner.ID() }

// fault decides the fate of one request on the directed link to a peer,
// spending the link's duplicate and lost-reply budgets.
func (e *faultyEndpoint) fault(to NodeID) (dropped, duplicate, lostAck bool) {
	link := [2]NodeID{e.inner.ID(), to}
	e.mesh.mu.Lock()
	defer e.mesh.mu.Unlock()
	if n := e.mesh.dup[link]; n > 0 {
		duplicate = true
		e.mesh.dup[link] = n - 1
	}
	if n := e.mesh.dropReply[link]; n > 0 {
		lostAck = true
		e.mesh.dropReply[link] = n - 1
	}
	return e.mesh.drop[link], duplicate, lostAck
}

func (e *faultyEndpoint) Call(ctx context.Context, to NodeID, req Message) (Message, error) {
	dropped, duplicate, lostAck := e.fault(to)
	if dropped {
		return Message{}, fmt.Errorf("%v→%v: %w", e.inner.ID(), to, ErrDropped)
	}
	resp, err := e.inner.Call(ctx, to, req)
	if duplicate {
		// Deliver the same request again; the stale second response is
		// discarded, as a retransmitting network would have the caller do.
		_, _ = e.inner.Call(ctx, to, req)
	}
	if lostAck {
		// The handler ran; only the response is lost.
		return Message{}, fmt.Errorf("%v→%v reply: %w", e.inner.ID(), to, ErrDropped)
	}
	return resp, err
}

// CallBatch faults each request of the flight on its own, exactly as Call
// would: one dropped, duplicated or unacknowledged request never touches its
// batchmates.
func (e *faultyEndpoint) CallBatch(ctx context.Context, to NodeID, reqs []Message) ([]Message, []error, error) {
	return callEach(reqs, func(req Message) (Message, error) { return e.Call(ctx, to, req) })
}

func (e *faultyEndpoint) Close() error { return e.inner.Close() }
