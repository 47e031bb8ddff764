package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"aeon/internal/schema"
)

// Message is a request or response exchanged between mesh endpoints.
type Message struct {
	// Kind routes the message to a handler action (e.g. "migrate.prepare").
	Kind string `json:"kind"`
	// Payload is an opaque, codec-encoded body.
	Payload []byte `json:"payload"`
}

// Handler processes a request and produces a response.
type Handler func(ctx context.Context, from NodeID, req Message) (Message, error)

// Endpoint is one node's attachment to a mesh.
type Endpoint interface {
	// ID returns this endpoint's node ID.
	ID() NodeID
	// Call sends a request to another node and waits for its response. The
	// request payload is not retained after Call returns, so callers may
	// recycle pooled payload buffers.
	Call(ctx context.Context, to NodeID, req Message) (Message, error)
	// Close detaches the endpoint.
	Close() error
}

// Stream is a pipelined connection to one peer: Call is safe for
// concurrent use and concurrent calls share the connection with many
// requests in flight (responses are matched by correlation ID, so they may
// complete in any order). When the stream's in-flight window is full, Call
// blocks until a slot frees or ctx expires — backpressure propagates to
// the submitter. The request payload is not retained after Call returns.
type Stream interface {
	Call(ctx context.Context, req Message) (Message, error)
	Close() error
}

// BatchCaller is implemented by streams that can issue several requests as
// one burst through a shared completion plane: the frames ride one writer
// flush and one parked waiter instead of len(reqs) goroutines. Responses
// are index-aligned with reqs; per-call handler failures land in errs; a
// non-nil overall error is a transport-level failure (context expiry,
// broken stream) that voided the whole flight.
type BatchCaller interface {
	CallBatch(ctx context.Context, reqs []Message) ([]Message, []error, error)
}

// StreamCallBatch issues reqs over st as one pipelined flight, using the
// stream's native CallBatch when it has one and falling back to concurrent
// Calls otherwise (the fallback reports transport failures per-index rather
// than as an overall error).
func StreamCallBatch(ctx context.Context, st Stream, reqs []Message) ([]Message, []error, error) {
	if bc, ok := st.(BatchCaller); ok {
		return bc.CallBatch(ctx, reqs)
	}
	msgs := make([]Message, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i := range reqs {
		go func(i int) {
			defer wg.Done()
			msgs[i], errs[i] = st.Call(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return msgs, errs, nil
}

// Streamer is implemented by endpoints that support pipelined multiplexed
// streams in addition to one-shot calls.
type Streamer interface {
	// Stream opens a pipelined stream to a peer. Streams are not pooled by
	// the transport: callers cache and reopen them.
	Stream(to NodeID) (Stream, error)
}

// OpenStream opens a pipelined stream to a peer when the endpoint supports
// it; ok is false otherwise (callers fall back to one-shot Call).
func OpenStream(ep Endpoint, to NodeID) (Stream, bool, error) {
	s, ok := ep.(Streamer)
	if !ok {
		return nil, false, nil
	}
	st, err := s.Stream(to)
	if err != nil {
		return nil, true, err
	}
	return st, true, nil
}

// Mesh connects endpoints so they can exchange request/response messages.
type Mesh interface {
	// Attach registers a node with its request handler and returns its
	// endpoint.
	Attach(id NodeID, h Handler) (Endpoint, error)
}

var (
	// ErrNodeUnknown is returned when calling a node that is not attached.
	ErrNodeUnknown error = schema.CodeLinkNoNode
	// ErrNodeAttached is returned when attaching an already-attached node.
	ErrNodeAttached = errors.New("transport: node already attached")
	// ErrClosed is returned when using a closed endpoint.
	ErrClosed error = schema.CodeLinkClosed
)

// InMemMesh is a Mesh connecting endpoints within one process. Delivery cost
// is charged through the supplied Network (both directions).
type InMemMesh struct {
	net Network

	mu    sync.RWMutex
	nodes map[NodeID]*inMemEndpoint
}

var _ Mesh = (*InMemMesh)(nil)

// NewInMemMesh returns a mesh whose message latency is charged via net.
func NewInMemMesh(net Network) *InMemMesh {
	return &InMemMesh{net: net, nodes: make(map[NodeID]*inMemEndpoint)}
}

// Attach implements Mesh.
func (m *InMemMesh) Attach(id NodeID, h Handler) (Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[id]; ok {
		return nil, fmt.Errorf("%v: %w", id, ErrNodeAttached)
	}
	ep := &inMemEndpoint{mesh: m, id: id, handler: h}
	m.nodes[id] = ep
	return ep, nil
}

type inMemEndpoint struct {
	mesh    *InMemMesh
	id      NodeID
	handler Handler

	mu     sync.Mutex
	closed bool
}

var _ Endpoint = (*inMemEndpoint)(nil)

func (e *inMemEndpoint) ID() NodeID { return e.id }

func (e *inMemEndpoint) Call(ctx context.Context, to NodeID, req Message) (Message, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return Message{}, ErrClosed
	}
	e.mesh.mu.RLock()
	dst, ok := e.mesh.nodes[to]
	e.mesh.mu.RUnlock()
	if !ok {
		return Message{}, fmt.Errorf("%v: %w", to, ErrNodeUnknown)
	}
	if err := e.mesh.net.Hop(e.id, to, len(req.Payload)); err != nil {
		return Message{}, err
	}
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	resp, err := dst.handler(ctx, e.id, req)
	if err != nil {
		return Message{}, err
	}
	if err := e.mesh.net.Hop(to, e.id, len(resp.Payload)); err != nil {
		return Message{}, err
	}
	return resp, nil
}

// Stream implements Streamer: the in-memory "connection" has no socket to
// multiplex, so pipelining is expressed directly — concurrent Calls run
// concurrently against the destination handler, bounded by the same
// in-flight window a mux connection has. This keeps stream-path semantics
// (windowed backpressure, concurrent dispatch) testable in-process.
func (e *inMemEndpoint) Stream(to NodeID) (Stream, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return &inMemStream{ep: e, to: to, window: make(chan struct{}, MuxWindow)}, nil
}

type inMemStream struct {
	ep     *inMemEndpoint
	to     NodeID
	window chan struct{}

	mu     sync.Mutex
	closed bool
}

var _ Stream = (*inMemStream)(nil)

func (s *inMemStream) Call(ctx context.Context, req Message) (Message, error) {
	select {
	case s.window <- struct{}{}:
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
	defer func() { <-s.window }()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return Message{}, ErrStreamBroken
	}
	return s.ep.Call(ctx, s.to, req)
}

func (s *inMemStream) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

func (e *inMemEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.mesh.mu.Lock()
	delete(e.mesh.nodes, e.id)
	e.mesh.mu.Unlock()
	return nil
}
