package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"aeon/internal/schema"
)

// Message is a request or response exchanged between mesh endpoints. Its
// payload may lie in a buffer of the frame-buffer pool (schema.GetFrameBuf) —
// the TCP mux's copies, a handler's PooledMessage — which whoever reads it
// last returns with Release; a message nobody releases leaves it to the GC.
type Message struct {
	// Kind routes the message to a handler action (e.g. "migrate.prepare").
	Kind string `json:"kind"`
	// Payload is an opaque, codec-encoded body.
	Payload []byte  `json:"payload"`
	buf     *[]byte // the pooled buffer Payload lies in, else nil
}

// PooledMessage is a message whose payload is *buf, a buffer from
// schema.GetFrameBuf that Release returns to the pool.
func PooledMessage(kind string, buf *[]byte) Message {
	return Message{Kind: kind, Payload: *buf, buf: buf}
}

// Release returns m's pooled buffer, if it has one, and empties m. Nothing
// may read the payload afterwards; the hot-codec decoders copy out of it.
func (m *Message) Release() {
	schema.PutFrameBuf(m.buf)
	*m = Message{}
}

// Handler processes a request and produces a response.
type Handler func(ctx context.Context, from NodeID, req Message) (Message, error)

// Endpoint is one node's attachment to a mesh, and the one way to call a
// peer: every kind of request — submits, forwards, hints, store ops, control
// frames, state transfers — goes through Call or CallBatch.
type Endpoint interface {
	// ID returns this endpoint's node ID.
	ID() NodeID
	// Call sends a request to another node and waits for its response. It is
	// safe for concurrent use, and on a TCP mesh concurrent calls to one peer
	// pipeline on the endpoint's one connection to it; when that
	// connection's in-flight window is full, Call blocks until a slot frees
	// or ctx expires — backpressure propagates to the submitter. The request
	// payload is not retained after Call returns, so callers may recycle
	// pooled payload buffers. A caller that has decoded the response
	// releases it.
	Call(ctx context.Context, to NodeID, req Message) (Message, error)
	// CallBatch issues several requests to one node as one flight. Responses
	// are index-aligned with reqs; per-call handler failures land in errs; a
	// non-nil overall error is a transport-level failure (context expiry,
	// broken connection) that voided the whole flight. Payloads are not
	// retained after it returns, and each response is released as Call's is.
	CallBatch(ctx context.Context, to NodeID, reqs []Message) ([]Message, []error, error)
	// Close detaches the endpoint and closes its connections.
	Close() error
}

// callEach is CallBatch for an endpoint with no connection to pipeline on:
// the requests run as concurrent calls, and a transport failure lands in its
// own index of errs rather than voiding the flight.
func callEach(reqs []Message, call func(Message) (Message, error)) ([]Message, []error, error) {
	msgs := make([]Message, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i := range reqs {
		go func(i int) {
			defer wg.Done()
			msgs[i], errs[i] = call(reqs[i])
		}(i)
	}
	wg.Wait()
	return msgs, errs, nil
}

// Stream is a private pipelined connection to one peer, for a caller that
// wants one of its own instead of the endpoint's (the benchmark's echo
// replay, the mux's tests): same Call and CallBatch contract, minus the
// peer.
type Stream interface {
	Call(ctx context.Context, req Message) (Message, error)
	BatchCaller
	Close() error
}

// BatchCaller is the batch half of a Stream: the frames ride one writer
// flush and one parked waiter instead of len(reqs) goroutines.
type BatchCaller interface {
	CallBatch(ctx context.Context, reqs []Message) ([]Message, []error, error)
}

// StreamCallBatch issues reqs over st as one pipelined flight.
func StreamCallBatch(ctx context.Context, st Stream, reqs []Message) ([]Message, []error, error) {
	return st.CallBatch(ctx, reqs)
}

// OpenStream dials a private mux connection to a peer; ok is false on a
// mesh that has no connections to open (the in-memory ones). The stream
// lives until its Close or the endpoint's.
func OpenStream(ep Endpoint, to NodeID) (Stream, bool, error) {
	e, ok := ep.(*tcpEndpoint)
	if !ok {
		return nil, false, nil
	}
	s, err := e.dial(context.Background(), to)
	if err != nil {
		return nil, true, err
	}
	return s, true, nil
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

func (e *inMemEndpoint) CallBatch(ctx context.Context, to NodeID, reqs []Message) ([]Message, []error, error) {
	return callEach(reqs, func(req Message) (Message, error) { return e.Call(ctx, to, req) })
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
