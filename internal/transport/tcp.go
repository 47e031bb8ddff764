package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// isTimeout reports whether err is a network timeout (deadline exceeded on
// the socket).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TCPMesh is a Mesh whose endpoints communicate over real TCP sockets. It
// supports multi-process deployments: each process attaches its node and
// dials peers by address.
//
// There is one wire protocol, the pipelined multiplexed one of mux.go, and
// one connection discipline: an endpoint dials a peer on its first call to
// it, keeps that one connection for every later Call and CallBatch — many
// in flight, responses matched by correlation ID — and replaces it only
// once it is broken (see mux.go for what that means). A listener closes a
// connection that opens with anything but the mux preamble. A closing
// endpoint stops reading requests at once but still writes the responses its
// handlers return on the way out, so the request that asked a process to
// shut down is acknowledged.
type TCPMesh struct {
	mu     sync.RWMutex
	addrs  map[NodeID]string
	locals map[NodeID]*tcpEndpoint
}

var _ Mesh = (*TCPMesh)(nil)

// NewTCPMesh returns a TCP mesh. Peers must be registered with Register
// before they can be called.
func NewTCPMesh() *TCPMesh {
	return &TCPMesh{
		addrs:  make(map[NodeID]string),
		locals: make(map[NodeID]*tcpEndpoint),
	}
}

// ErrCallTimeout is returned by TCP mesh calls whose context expired before
// the peer answered (dead peer, partition, or overload). The connection
// survives a call that timed out waiting for a handler — correlation IDs are
// never reused, so the late response is dropped — and is replaced when the
// call's own frame could not be written by then.
var ErrCallTimeout = errors.New("transport: call timed out")

// Register associates a node ID with a dialable address. Registering the
// local node's own ID before Attach makes Attach listen on that address.
func (m *TCPMesh) Register(id NodeID, addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addrs[id] = addr
}

// Attach implements Mesh: it starts a TCP listener — on the node's
// registered address when one was Registered, otherwise on an ephemeral
// loopback port — and serves requests with h.
func (m *TCPMesh) Attach(id NodeID, h Handler) (Endpoint, error) {
	m.mu.RLock()
	addr, ok := m.addrs[id]
	m.mu.RUnlock()
	if !ok {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return m.AttachListener(id, h, ln)
}

// AttachListener attaches a node serving on the given listener.
func (m *TCPMesh) AttachListener(id NodeID, h Handler, ln net.Listener) (Endpoint, error) {
	m.mu.Lock()
	if _, ok := m.locals[id]; ok {
		m.mu.Unlock()
		_ = ln.Close()
		return nil, fmt.Errorf("%v: %w", id, ErrNodeAttached)
	}
	ep := &tcpEndpoint{
		mesh:    m,
		id:      id,
		handler: h,
		ln:      ln,
		peers:   make(map[NodeID]*peerLink),
		served:  make(map[net.Conn]*muxWorkerPool),
		streams: make(map[*muxStream]bool),
		done:    make(chan struct{}),
	}
	m.locals[id] = ep
	m.addrs[id] = ln.Addr().String()
	m.mu.Unlock()

	ep.wg.Add(2)
	go ep.serve()
	go ep.reap()
	return ep, nil
}

// Addr returns the registered address of a node.
func (m *TCPMesh) Addr(id NodeID) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	a, ok := m.addrs[id]
	return a, ok
}

// closeDrain is how long a closing endpoint lets its accepted connections
// flush responses to peers that are slow to read them.
const closeDrain = time.Second

// peerLink is an endpoint's one connection to a peer. dialing is a
// one-token lock held while the connection is (re)dialed, so concurrent
// first calls share one dial and a waiter can still honour its own context.
type peerLink struct {
	dialing chan struct{}
	s       atomic.Pointer[muxStream]
}

// live returns the link's connection unless there is none or it is broken.
func (l *peerLink) live() *muxStream {
	if s := l.s.Load(); s != nil && !s.isBroken() {
		return s
	}
	return nil
}

type tcpEndpoint struct {
	mesh    *TCPMesh
	id      NodeID
	handler Handler
	ln      net.Listener

	mu      sync.Mutex
	peers   map[NodeID]*peerLink
	served  map[net.Conn]*muxWorkerPool // accepted connections; the pool is nil until serveMux has made it
	streams map[*muxStream]bool         // every live stream this endpoint dialed, for Close
	closed  bool

	done chan struct{}
	wg   sync.WaitGroup
}

var _ Endpoint = (*tcpEndpoint)(nil)

func (e *tcpEndpoint) ID() NodeID { return e.id }

func (e *tcpEndpoint) serve() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		e.wg.Add(1)
		go e.serveConn(conn)
	}
}

func (e *tcpEndpoint) serveConn(conn net.Conn) {
	defer e.wg.Done()
	defer func() { _ = conn.Close() }()
	// Track the accepted connection so Close can unblock its reads even when
	// the remote side keeps the connection open.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.served[conn] = nil
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.served, conn)
		e.mu.Unlock()
	}()
	from, ok := readMuxPreamble(conn)
	if !ok {
		return // not a mesh peer: closed before any handler runs
	}
	serveMux(conn, from, e.handler, e.done, func(pool *muxWorkerPool) {
		e.mu.Lock()
		e.served[conn] = pool
		e.mu.Unlock()
	})
}

// reap is the endpoint's one reaper: every muxWorkerIdle it has each served
// connection's pool retire the workers the period did not need. (A reap only
// ever waits for a worker that is waiting for a job, so mu can be held.)
func (e *tcpEndpoint) reap() {
	defer e.wg.Done()
	tick := time.NewTicker(muxWorkerIdle)
	defer tick.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-tick.C:
		}
		e.mu.Lock()
		for _, pool := range e.served {
			if pool != nil {
				pool.reap()
			}
		}
		e.mu.Unlock()
	}
}

// dial opens a mux connection to a peer under the caller's context and
// tracks it for Close.
func (e *tcpEndpoint) dial(ctx context.Context, to NodeID) (*muxStream, error) {
	addr, ok := e.mesh.Addr(to)
	if !ok {
		return nil, fmt.Errorf("%v: %w", to, ErrNodeUnknown)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		// A peer whose handshake never completes (host down, SYN
		// blackholed) is the same dead-peer case as a hung response:
		// surface the typed timeout.
		if isTimeout(err) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("dial %v: %w", to, ErrCallTimeout)
		}
		return nil, fmt.Errorf("dial %v: %w", to, err)
	}
	s, err := dialMux(conn, e.id, to)
	if err != nil {
		return nil, err
	}
	s.owner = e
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		s.fail(ErrClosed)
		return nil, ErrClosed
	}
	e.streams[s] = true
	return s, nil
}

func (e *tcpEndpoint) untrack(s *muxStream) {
	e.mu.Lock()
	delete(e.streams, s)
	e.mu.Unlock()
}

// link returns the endpoint's connection to a peer, dialing it on first use
// and again once the cached one is broken — the only reason a connection is
// ever replaced.
func (e *tcpEndpoint) link(ctx context.Context, to NodeID) (*muxStream, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	l := e.peers[to]
	if l == nil {
		l = &peerLink{dialing: make(chan struct{}, 1)}
		e.peers[to] = l
	}
	e.mu.Unlock()
	if s := l.live(); s != nil {
		return s, nil
	}

	select {
	case l.dialing <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("dial %v: %w", to, ErrCallTimeout)
	}
	defer func() { <-l.dialing }()
	if s := l.live(); s != nil {
		return s, nil // dialed while this caller waited its turn
	}
	fresh, err := e.dial(ctx, to)
	if err != nil {
		return nil, err
	}
	if broken := l.s.Swap(fresh); broken != nil {
		e.untrack(broken)
	}
	return fresh, nil
}

func (e *tcpEndpoint) Call(ctx context.Context, to NodeID, req Message) (Message, error) {
	s, err := e.link(ctx, to)
	if err != nil {
		return Message{}, err
	}
	return s.Call(ctx, req)
}

func (e *tcpEndpoint) CallBatch(ctx context.Context, calls []Call) {
	(&flight{calls: calls}).fly(ctx, func(to NodeID) (*muxStream, error) { return e.link(ctx, to) })
}

func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for conn := range e.served {
		// Unblock the connection's read loop without cutting off the
		// responses its handlers have already earned — the ack of the
		// shutdown request that led here, for one: serveMux drains its
		// handlers and its writer, then serveConn closes the socket. The
		// write deadline bounds that on a peer that has stopped reading.
		// Neither CloseRead nor a past read deadline waits for the read
		// loop, as conn.Close would: it may be waiting for admission that
		// only close(e.done) below releases.
		_ = conn.SetWriteDeadline(time.Now().Add(closeDrain))
		if half, ok := conn.(interface{ CloseRead() error }); ok {
			_ = half.CloseRead()
		} else {
			_ = conn.SetReadDeadline(aLongTimeAgo)
		}
	}
	streams := make([]*muxStream, 0, len(e.streams))
	for s := range e.streams {
		streams = append(streams, s)
	}
	e.mu.Unlock()
	for _, s := range streams {
		_ = s.Close() // fail pending calls fast
	}

	close(e.done)
	err := e.ln.Close()
	e.wg.Wait()

	e.mesh.mu.Lock()
	delete(e.mesh.locals, e.id)
	e.mesh.mu.Unlock()
	return err
}
