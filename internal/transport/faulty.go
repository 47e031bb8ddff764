package transport

import (
	"context"
	"errors"
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

func (e *faultyEndpoint) Call(ctx context.Context, to NodeID, req Message) (Message, error) {
	link := [2]NodeID{e.inner.ID(), to}
	e.mesh.mu.Lock()
	dropped := e.mesh.drop[link]
	duplicate := false
	if n := e.mesh.dup[link]; n > 0 {
		duplicate = true
		e.mesh.dup[link] = n - 1
	}
	lostAck := false
	if n := e.mesh.dropReply[link]; n > 0 {
		lostAck = true
		e.mesh.dropReply[link] = n - 1
	}
	e.mesh.mu.Unlock()
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

func (e *faultyEndpoint) Close() error { return e.inner.Close() }

// Stream implements Streamer when the inner endpoint does: the pipelined
// path is subject to the same directed-link faults as one-shot calls, so
// tests can drop, duplicate, and lose-the-response-of individual pipelined
// requests.
func (e *faultyEndpoint) Stream(to NodeID) (Stream, error) {
	inner, ok, err := OpenStream(e.inner, to)
	if !ok {
		return nil, fmt.Errorf("%T: %w", e.inner, ErrNoStreams)
	}
	if err != nil {
		return nil, err
	}
	return &faultyStream{mesh: e.mesh, from: e.inner.ID(), to: to, inner: inner}, nil
}

// ErrNoStreams is returned when opening a stream on a mesh whose inner
// endpoints only support one-shot calls.
var ErrNoStreams = errors.New("transport: endpoint does not support streams")

type faultyStream struct {
	mesh  *FaultyMesh
	from  NodeID
	to    NodeID
	inner Stream
}

var _ Stream = (*faultyStream)(nil)

func (s *faultyStream) Call(ctx context.Context, req Message) (Message, error) {
	link := [2]NodeID{s.from, s.to}
	s.mesh.mu.Lock()
	dropped := s.mesh.drop[link]
	duplicate := false
	if n := s.mesh.dup[link]; n > 0 {
		duplicate = true
		s.mesh.dup[link] = n - 1
	}
	lostAck := false
	if n := s.mesh.dropReply[link]; n > 0 {
		lostAck = true
		s.mesh.dropReply[link] = n - 1
	}
	s.mesh.mu.Unlock()
	if dropped {
		return Message{}, fmt.Errorf("%v→%v: %w", s.from, s.to, ErrDropped)
	}
	resp, err := s.inner.Call(ctx, req)
	if duplicate {
		// The request is delivered twice (the handler runs for both); the
		// duplicate's response is discarded like a retransmission's would
		// be — on a real mux connection its correlation ID is already
		// retired, so it can never match a newer request.
		_, _ = s.inner.Call(ctx, req)
	}
	if lostAck {
		return Message{}, fmt.Errorf("%v→%v reply: %w", s.from, s.to, ErrDropped)
	}
	return resp, err
}

func (s *faultyStream) Close() error { return s.inner.Close() }
