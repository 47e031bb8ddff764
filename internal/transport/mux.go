package transport

// The mesh's one wire protocol: pipelined, multiplexed connections. An
// endpoint holds one mux connection per peer and every call to that peer
// rides it — submits, forwards, replication hints, store ops, control frames
// and state transfers alike. Each call is stamped with a correlation ID, a
// writer goroutine coalesces queued frames into as few socket writes as the
// traffic allows (one write covers every frame queued while the previous one
// was in flight; a large payload is gathered in place, writev-style), the
// server dispatches frames to a bounded worker pool as they arrive, and a
// reader goroutine matches responses back to callers by correlation ID, in
// whatever order the handlers finish.
//
// Completion plane. Completions are delivered through a per-stream slot
// table instead of one channel per call: a correlation ID encodes its slot
// index in the low bits and a per-slot generation in the high bits, so the
// reader finds the destination slot with a mask, writes the result, and
// wakes the caller through one of a small set of striped notifiers. A burst
// of responses arriving in one read batch wakes each touched stripe once —
// not once per call — which is what removes the per-event channel allocation
// and wakeup that dominated the pipelined submit path (BENCH_6's residual).
//
// Correlation IDs are never reused: the generation increments on every slot
// acquisition, so a late response (its caller timed out and abandoned the
// slot) or a duplicated response can only mismatch the slot's current ID and
// be discarded; it can never be delivered to a newer request. That is why a
// call that times out waiting for a handler leaves the connection alone.
//
// When a connection is replaced. A stream is broken when bytes cannot move
// on it: its reader or writer failed, or a caller's deadline expired with
// its frame still unflushed (the peer stopped reading, or the writer is
// wedged behind a frame whose peer did). A broken stream fails every call
// pending on it and is never used again; the endpoint dials a fresh one on
// the next call. Nothing else replaces a connection — not a handler error,
// not a deadline that expired waiting for a reply.
//
// Backpressure: the slot freelist doubles as the bounded in-flight window
// (MuxWindow, 1024). When no slot is free, Call blocks until one frees or
// the caller's context expires — pressure propagates to the submitter
// instead of growing an unbounded queue or dropping frames. The server side
// weighs admission by *events*, not frames (schema.HotFrameEvents), so a
// 128-event batch frame takes 128 admission slots and batching cannot be
// used to sidestep the window.
//
// Footprint. A connection that has carried nothing holds its two 64 KiB
// read buffers and little else: the window bounds what is in flight, so the
// hand-off queues between callers, writer, workers and response writer are
// short (muxQueueDepth); the writers own no fixed buffer; the slot table is
// allocated a chunk at a time as the freelist first reaches each chunk.
//
// Wire format. A mux connection opens with a 12-byte preamble:
//
//	[4]byte{0xA7, 'M', 'X', '1'}   magic
//	uint64 BE                      caller's NodeID
//
// then carries length-prefixed frames in both directions:
//
//	uint32 BE      frame length (bytes that follow; ≤ 64 MiB)
//	uint64 BE      correlation ID
//	uvarint+bytes  kind
//	byte           schema.Code (0 on requests and successes)
//	uvarint+bytes  error message (present only when the code is non-zero)
//	rest           payload
//
// A connection that does not open with the magic is closed before any
// handler runs.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/schema"
)

// muxMagic opens every multiplexed connection.
var muxMagic = [4]byte{0xA7, 'M', 'X', '1'}

// MuxWindow is the per-stream in-flight window: at most this many calls may
// be pending on one mux connection; further Calls block (backpressure).
// Must be a power of two — correlation IDs carry the slot index in their
// low bits.
const MuxWindow = 1024

// muxSlotShift is the number of correlation-ID bits holding the slot index.
const muxSlotShift = 10

// muxSlotChunk is how many completion slots are allocated at a time. The
// freelist hands slots out in index order, so a stream that has made fewer
// than muxSlotChunk calls holds one chunk and a busy one grows to the full
// table.
const muxSlotChunk = 64

// muxQueueDepth is the depth of the hand-off queues (caller → writer, read
// loop → workers, workers → response writer). The window and the admission
// semaphore bound what is in flight; these only need to absorb one
// scheduling burst, after which a full queue blocks its sender.
const muxQueueDepth = 64

// muxNotifyStripes is the number of completion notifiers a stream's slots
// hash onto. Waiters park on their slot's stripe; the reader wakes each
// dirty stripe once per read burst.
const muxNotifyStripes = 16

// muxServerAdmission bounds the total in-flight event weight (frames
// weighted by their event count) one server connection admits before the
// read loop stops pulling frames off the socket.
const muxServerAdmission = 4 * MuxWindow

// muxWorkerIdle is how long a server pool worker stays parked waiting for
// the next frame before exiting; the pool grows on demand up to MuxWindow
// workers and shrinks back when a burst passes.
const muxWorkerIdle = time.Second

// maxMuxFrame bounds a frame body so a corrupt length prefix cannot demand
// an absurd allocation. It is the largest request or response the mesh
// carries — a migration's state transfer included.
const maxMuxFrame = 64 << 20

// muxReadBuffer is each side's socket read buffer: one read syscall drains
// up to this much of a burst.
const muxReadBuffer = 64 << 10

// muxFlushBytes is how much a writer queues before it writes without
// waiting for the burst to end, and muxDirectPayload the payload size from
// which a frame is not copied into the queue at all but gathered from the
// caller's memory.
const (
	muxFlushBytes    = 64 << 10
	muxDirectPayload = 16 << 10
)

// ErrStreamBroken is returned by calls pending on a mux stream whose
// connection failed; the stream is dead and the endpoint dials a fresh one
// on the next call.
var ErrStreamBroken = errors.New("transport: mux stream broken")

// errFrameTooLarge refuses a frame over maxMuxFrame before it is queued.
var errFrameTooLarge = fmt.Errorf("transport: mux frame larger than %d bytes", maxMuxFrame)

// muxWrite is one queued outbound frame.
type muxWrite struct {
	corrID  uint64
	kind    string
	code    schema.Code // non-zero on a handler's error response
	errMsg  string
	payload []byte
}

// bodyLen is the frame's length prefix: everything after it.
func (wr *muxWrite) bodyLen() int {
	n := 8 + uvarintLen(uint64(len(wr.kind))) + len(wr.kind) + 1 + len(wr.payload)
	if wr.code != schema.CodeOK {
		n += uvarintLen(uint64(len(wr.errMsg))) + len(wr.errMsg)
	}
	return n
}

// appendHeader appends the frame up to, not including, its payload.
func (wr *muxWrite) appendHeader(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(wr.bodyLen()))
	dst = binary.BigEndian.AppendUint64(dst, wr.corrID)
	dst = binary.AppendUvarint(dst, uint64(len(wr.kind)))
	dst = append(dst, wr.kind...)
	dst = append(dst, byte(wr.code))
	if wr.code != schema.CodeOK {
		dst = binary.AppendUvarint(dst, uint64(len(wr.errMsg)))
		dst = append(dst, wr.errMsg...)
	}
	return dst
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readMuxFrame reads one frame, reusing *buf for the body. herr is the
// handler error an error frame carries (Node unset; a code byte this build
// has no row for reads as CodeUnknown), nil on requests and successes. kind
// and payload alias *buf and are only valid until the next call.
func readMuxFrame(r io.Reader, buf *[]byte) (corrID uint64, kind string, herr *RemoteError, payload []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", nil, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 8 || n > maxMuxFrame {
		return 0, "", nil, nil, fmt.Errorf("transport: bad mux frame length %d", n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, "", nil, nil, err
	}
	corrID = binary.BigEndian.Uint64(body[:8])
	rest := body[8:]
	take := func() ([]byte, error) {
		ln, sz := binary.Uvarint(rest)
		if sz <= 0 || uint64(len(rest)-sz) < ln {
			return nil, fmt.Errorf("transport: corrupt mux frame field")
		}
		f := rest[sz : sz+int(ln)]
		rest = rest[sz+int(ln):]
		return f, nil
	}
	kb, err := take()
	if err != nil {
		return 0, "", nil, nil, err
	}
	if len(rest) == 0 {
		return 0, "", nil, nil, fmt.Errorf("transport: mux frame has no code byte")
	}
	code := schema.Code(rest[0])
	rest = rest[1:]
	if code != schema.CodeOK {
		mb, err := take()
		if err != nil {
			return 0, "", nil, nil, err
		}
		if code >= schema.NumCodes {
			code = schema.CodeUnknown
		}
		herr = &RemoteError{Code: code, Msg: string(mb)}
	}
	return corrID, string(kb), herr, rest, nil
}

// RemoteError is the error a remote handler returned: its message, and the
// schema.Code it carried (CodeUnknown when it carried none), so a coded
// sentinel crosses the mesh as itself and errors.Is holds on the caller.
type RemoteError struct {
	Node NodeID
	Code schema.Code
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("remote %v: %s", e.Node, e.Msg) }

// Unwrap returns the code the handler's error carried.
func (e *RemoteError) Unwrap() error { return e.Code }

// ---- frame writer ----

// frameWriter turns queued frames into socket writes with no fixed buffer:
// headers and small payloads are appended to out, which grows to what the
// link's bursts need (an idle link holds nothing) and is written when the
// burst ends or muxFlushBytes are queued; a payload of muxDirectPayload
// bytes or more is never copied — it goes to the kernel from the caller's
// memory, gathered with whatever is queued ahead of it.
type frameWriter struct {
	conn net.Conn
	out  []byte
	// flushed, when non-nil, is told the correlation ID of every frame once
	// its bytes are on the socket; pending holds those queued in out.
	flushed func(corrID uint64)
	pending []uint64
}

func (w *frameWriter) add(wr muxWrite) error {
	w.out = wr.appendHeader(w.out)
	if w.flushed != nil {
		w.pending = append(w.pending, wr.corrID)
	}
	if len(wr.payload) >= muxDirectPayload {
		return w.flush(wr.payload)
	}
	w.out = append(w.out, wr.payload...)
	if len(w.out) >= muxFlushBytes {
		return w.flush(nil)
	}
	return nil
}

// flush writes what is queued, then direct.
func (w *frameWriter) flush(direct []byte) error {
	var err error
	switch {
	case direct != nil:
		bufs := net.Buffers{w.out, direct}
		_, err = bufs.WriteTo(w.conn)
	case len(w.out) > 0:
		_, err = w.conn.Write(w.out)
	}
	w.out = w.out[:0]
	if err == nil {
		for _, id := range w.pending {
			w.flushed(id)
		}
	}
	w.pending = w.pending[:0]
	return err
}

// pumpFrames is the writer goroutine of both halves of a connection: it
// drains ch into conn, one socket write per burst — every frame queued
// while the previous write was on the wire rides the next one. It returns
// nil when ch is closed (a server's response queue) or stop is (a client
// stream failing), and the error when a write fails. flushed, when non-nil,
// hears of every frame written.
func pumpFrames(conn net.Conn, ch <-chan muxWrite, stop <-chan struct{}, flushed func(corrID uint64)) error {
	w := frameWriter{conn: conn, flushed: flushed}
	for {
		var (
			wr muxWrite
			ok bool
		)
		select {
		case wr, ok = <-ch:
			if !ok {
				return nil
			}
		case <-stop:
			return nil
		}
		err := w.add(wr)
		// Drain the burst before flushing. When the queue looks empty, yield
		// once and re-check: callers that just woke from the previous flush,
		// or handlers finishing right now, are usually about to enqueue, and
		// folding their frames into this write is what turns N round-trip
		// syscalls into one.
		yielded := false
	drain:
		for err == nil {
			select {
			case wr, ok = <-ch:
				if !ok {
					break drain // flush; the next receive returns
				}
				err = w.add(wr)
			default:
				if !yielded && len(w.out) < muxFlushBytes/2 {
					yielded = true
					runtime.Gosched()
					continue
				}
				break drain
			}
		}
		if err == nil {
			err = w.flush(nil)
		}
		if err != nil {
			return err
		}
	}
}

// ---- client stream ----

// muxSlot is one entry of the completion plane. The owner (the caller
// holding the slot between acquire and release) and the reader synchronize
// on mu; gen is touched only by owners while they hold the slot, so it
// survives across uses without wider locking.
type muxSlot struct {
	mu      sync.Mutex
	corr    uint64 // current correlation ID; 0 = no caller listening
	flushed bool   // the request frame is on the socket: the writer is done with its payload
	done    bool
	msg     Message
	err     error
	gen     uint64
}

// take claims a completed slot's result and closes the slot for delivery.
func (sl *muxSlot) take() (msg Message, err error, ok bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if !sl.done {
		return Message{}, nil, false
	}
	msg, err = sl.msg, sl.err
	sl.corr, sl.done, sl.msg, sl.err = 0, false, Message{}, nil
	return msg, err, true
}

// close closes the slot for delivery without completing it, and reports
// whether its request frame had reached the socket.
func (sl *muxSlot) close() (flushed bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	flushed = sl.flushed
	sl.corr, sl.done, sl.msg, sl.err = 0, false, Message{}, nil
	return flushed
}

// notifyStripe wakes every waiter parked on it by closing and replacing its
// channel. Waiters grab the current channel before re-checking their slot,
// so a wake between check and park is never lost.
type notifyStripe struct {
	mu sync.Mutex
	ch chan struct{}
}

func (n *notifyStripe) get() <-chan struct{} {
	n.mu.Lock()
	ch := n.ch
	n.mu.Unlock()
	return ch
}

func (n *notifyStripe) wake() {
	n.mu.Lock()
	close(n.ch)
	n.ch = make(chan struct{})
	n.mu.Unlock()
}

// muxStream is the client half of a multiplexed connection.
type muxStream struct {
	to    NodeID
	conn  net.Conn
	owner *tcpEndpoint // untracks the stream on Close; nil in tests

	writeCh chan muxWrite

	slots   [MuxWindow / muxSlotChunk]atomic.Pointer[[muxSlotChunk]muxSlot]
	free    chan uint32 // slot freelist; doubles as the in-flight window
	stripes [muxNotifyStripes]notifyStripe

	mu     sync.Mutex
	broken error

	done       chan struct{} // closed when the stream fails
	writerDone chan struct{} // closed when the writer has exited
	once       sync.Once
	wg         sync.WaitGroup
}

var _ Stream = (*muxStream)(nil)

// dialMux opens a mux stream over an established connection, sending the
// preamble and starting the writer/reader goroutines.
func dialMux(conn net.Conn, from, to NodeID) (*muxStream, error) {
	var pre [12]byte
	copy(pre[:4], muxMagic[:])
	binary.BigEndian.PutUint64(pre[4:], uint64(int64(from)))
	if _, err := conn.Write(pre[:]); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("mux preamble to %v: %w", to, err)
	}
	s := &muxStream{
		to:         to,
		conn:       conn,
		writeCh:    make(chan muxWrite, muxQueueDepth),
		free:       make(chan uint32, MuxWindow),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	for i := range s.stripes {
		s.stripes[i].ch = make(chan struct{})
	}
	for i := uint32(0); i < MuxWindow; i++ {
		s.free <- i
	}
	s.wg.Add(2)
	muxStreamsOpen.Add(1)
	go s.writer()
	go s.reader()
	return s, nil
}

// readMuxPreamble reads what dialMux wrote: the caller's node ID, false when
// the connection opened with anything else.
func readMuxPreamble(conn net.Conn) (NodeID, bool) {
	var pre [12]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil || [4]byte(pre[:4]) != muxMagic {
		return 0, false
	}
	return NodeID(int64(binary.BigEndian.Uint64(pre[4:]))), true
}

// fail breaks the stream: the connection closes, done wakes every parked
// caller (they observe the break directly — no per-call delivery needed),
// and future calls fail fast.
func (s *muxStream) fail(err error) {
	s.once.Do(func() {
		s.mu.Lock()
		s.broken = err
		s.mu.Unlock()
		close(s.done)
		_ = s.conn.Close()
		muxStreamsOpen.Add(-1)
	})
}

// isBroken reports whether the stream has failed.
func (s *muxStream) isBroken() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Close implements Stream.
func (s *muxStream) Close() error {
	s.fail(ErrStreamBroken)
	s.wg.Wait()
	if s.owner != nil {
		s.owner.untrack(s)
	}
	return nil
}

func (s *muxStream) writer() {
	defer s.wg.Done()
	defer close(s.writerDone)
	if err := pumpFrames(s.conn, s.writeCh, s.done, s.markFlushed); err != nil {
		s.fail(fmt.Errorf("mux write to %v: %w", s.to, err))
	}
}

// frameBuffered reports whether a complete frame is already sitting in r's
// buffer — i.e. whether the next readMuxFrame can return without blocking.
// The reader uses it to batch completion wakeups: notifications are held
// while more responses are decodable and flushed just before the loop would
// block on the socket.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false // Peek would hit the socket and block
	}
	hdr, err := r.Peek(4)
	if err != nil {
		return false
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxMuxFrame {
		return false // corrupt length; the next read will surface the error
	}
	return r.Buffered() >= 4+int(n)
}

// reader matches inbound frames to completion slots by correlation ID. A
// frame whose ID mismatches its slot's current ID — its caller timed out,
// or a faulty network duplicated the response — is discarded: IDs are never
// reused, so it cannot belong to a newer call. Wakeups are batched per read
// burst: each touched stripe is woken once, after every already-buffered
// response has been delivered.
func (s *muxStream) reader() {
	defer s.wg.Done()
	r := bufio.NewReaderSize(s.conn, muxReadBuffer)
	var buf []byte
	var dirty uint32 // bitmask of stripes with undelivered wakeups
	for {
		corrID, kind, herr, payload, err := readMuxFrame(r, &buf)
		if err != nil {
			s.fail(fmt.Errorf("mux read from %v: %w", s.to, err))
			return
		}
		if s.deliver(corrID, kind, herr, payload) {
			dirty |= 1 << (uint32(corrID&(MuxWindow-1)) % muxNotifyStripes)
		}
		if dirty != 0 && !frameBuffered(r) {
			for i := uint32(0); dirty != 0; i++ {
				if dirty&(1<<i) != 0 {
					s.stripes[i].wake()
					dirty &^= 1 << i
				}
			}
		}
	}
}

// slot returns the completion slot for idx, nil when its chunk of the table
// has never been armed.
func (s *muxStream) slot(idx uint32) *muxSlot {
	if c := s.slots[idx/muxSlotChunk].Load(); c != nil {
		return &c[idx%muxSlotChunk]
	}
	return nil
}

// deliver writes one response into its slot; it reports whether a caller is
// listening (and therefore whether its stripe needs a wakeup).
func (s *muxStream) deliver(corrID uint64, kind string, herr *RemoteError, payload []byte) bool {
	sl := s.slot(uint32(corrID & (MuxWindow - 1)))
	if sl == nil {
		muxDroppedResponses.Add(1)
		return false // an ID this stream never issued
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.corr != corrID || sl.done {
		muxDroppedResponses.Add(1)
		return false // late or duplicated response: no caller, drop it
	}
	if herr != nil {
		herr.Node = s.to
		sl.err = herr
	} else {
		// The read buffer is reused for the next frame; the payload handed
		// to the caller must own its bytes.
		p := make([]byte, len(payload))
		copy(p, payload)
		sl.msg = Message{Kind: kind, Payload: p}
	}
	sl.done = true
	return true
}

// acquire takes a free completion slot (the backpressure point). A deadline
// that expires here waited on the window, not the wire: the stream is fine.
func (s *muxStream) acquire(ctx context.Context) (uint32, error) {
	select {
	case idx := <-s.free:
		select {
		case <-s.done:
			s.free <- idx
			return 0, s.brokenErr()
		default:
			muxSlotsInUse.Add(1)
			return idx, nil
		}
	case <-ctx.Done():
		return 0, s.timeoutErr()
	case <-s.done:
		return 0, s.brokenErr()
	}
}

// arm stamps a fresh, never-before-used correlation ID onto an acquired
// slot and opens it for delivery.
func (s *muxStream) arm(idx uint32) uint64 {
	sl := s.slot(idx)
	if sl == nil {
		s.slots[idx/muxSlotChunk].CompareAndSwap(nil, new([muxSlotChunk]muxSlot))
		sl = s.slot(idx)
	}
	sl.mu.Lock()
	sl.gen++
	corr := sl.gen<<muxSlotShift | uint64(idx)
	sl.corr = corr
	sl.flushed, sl.done, sl.msg, sl.err = false, false, Message{}, nil
	sl.mu.Unlock()
	return corr
}

// markFlushed is the writer telling a frame's caller, should it stop
// waiting, that its request payload is no longer being read.
func (s *muxStream) markFlushed(corrID uint64) {
	sl := s.slot(uint32(corrID & (MuxWindow - 1)))
	sl.mu.Lock()
	if sl.corr == corrID {
		sl.flushed = true
	}
	sl.mu.Unlock()
}

// release returns a slot to the freelist.
func (s *muxStream) release(idx uint32) {
	muxSlotsInUse.Add(-1)
	s.free <- idx
}

// send takes a slot for req and hands its frame to the writer. A context
// that is already done never reaches the stream, and one that expires
// before the frame is queued waited on the queue, as in acquire: neither
// says anything about the connection.
func (s *muxStream) send(ctx context.Context, req Message) (uint32, error) {
	wr := muxWrite{kind: req.Kind, payload: req.Payload}
	if wr.bodyLen() > maxMuxFrame {
		return 0, fmt.Errorf("mux call to %v: %w", s.to, errFrameTooLarge)
	}
	select {
	case <-ctx.Done():
		return 0, s.timeoutErr()
	default:
	}
	idx, err := s.acquire(ctx)
	if err != nil {
		return 0, err
	}
	wr.corrID = s.arm(idx)
	select {
	case s.writeCh <- wr:
		return idx, nil
	case <-ctx.Done():
		err = s.timeoutErr()
	case <-s.done:
		err = s.brokenErr()
	}
	s.slot(idx).close()
	s.release(idx)
	return 0, err
}

// giveUp abandons a sent call whose result will not be taken. It is where a
// caller decides what its expired deadline says about the connection: a
// frame that reached the socket was waiting on the handler, and the stream
// is left alone (the late reply mismatches the slot's next ID and is
// dropped); a frame still unflushed means bytes are not moving, and the
// stream is broken. Either way giveUp returns only once the writer can no
// longer read the request payload, because callers recycle it as soon as
// the call returns.
func (s *muxStream) giveUp(idx uint32) {
	if !s.slot(idx).close() {
		s.fail(fmt.Errorf("mux write to %v stalled past a caller's wait: %w", s.to, ErrStreamBroken))
		<-s.writerDone
	}
	s.release(idx)
}

// awaitSlot parks on the slot's stripe until the reader completes the slot,
// the context expires, or the stream breaks. callErr is a per-call handler
// failure (RemoteError); fatal is a transport-level failure that voids the
// whole flight. Exactly one of the three outcomes is set, and in every case
// the slot has been returned to the freelist when awaitSlot returns.
func (s *muxStream) awaitSlot(ctx context.Context, idx uint32) (msg Message, callErr, fatal error) {
	sl := s.slot(idx)
	stripe := &s.stripes[idx%muxNotifyStripes]
	for {
		ch := stripe.get()
		if m, e, ok := sl.take(); ok {
			s.release(idx)
			return m, e, nil
		}
		if fatal != nil {
			s.giveUp(idx)
			return Message{}, nil, fatal
		}
		// On either failure, look once more: a completion may have raced it.
		select {
		case <-ch:
		case <-ctx.Done():
			fatal = s.timeoutErr()
		case <-s.done:
			fatal = s.brokenErr()
		}
	}
}

// Call implements Stream: it is safe for concurrent use, and concurrent
// calls pipeline on the single connection. The request payload is not
// retained after Call returns.
func (s *muxStream) Call(ctx context.Context, req Message) (Message, error) {
	idx, err := s.send(ctx, req)
	if err != nil {
		return Message{}, err
	}
	msg, callErr, fatal := s.awaitSlot(ctx, idx)
	if fatal != nil {
		return Message{}, fatal
	}
	return msg, callErr
}

// CallBatch implements BatchCaller: every request becomes its own pipelined
// frame, enqueued as one burst (the writer folds them into one flush) and
// awaited through the completion plane with one parked caller instead of
// len(reqs) goroutines. Handler failures land per-index in errs; a
// transport-level failure (context expiry, broken stream) aborts the whole
// flight and is returned as fatal with every in-flight slot abandoned.
func (s *muxStream) CallBatch(ctx context.Context, reqs []Message) ([]Message, []error, error) {
	if len(reqs) == 0 {
		return nil, nil, nil
	}
	flights := make([]uint32, 0, len(reqs)) // slot per request still in flight
	abandon := func(fatal error) ([]Message, []error, error) {
		for _, idx := range flights {
			s.giveUp(idx)
		}
		return nil, nil, fatal
	}
	for i := range reqs {
		idx, err := s.send(ctx, reqs[i])
		if err != nil {
			return abandon(err)
		}
		flights = append(flights, idx)
	}
	msgs := make([]Message, len(reqs))
	errs := make([]error, len(reqs))
	for i, idx := range flights {
		msg, callErr, fatal := s.awaitSlot(ctx, idx)
		if fatal != nil {
			flights = flights[i+1:]
			return abandon(fatal)
		}
		msgs[i], errs[i] = msg, callErr
	}
	return msgs, errs, nil
}

func (s *muxStream) timeoutErr() error {
	return fmt.Errorf("mux call to %v: %w", s.to, ErrCallTimeout)
}

func (s *muxStream) brokenErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	return ErrStreamBroken
}

// ---- server side ----

// weightedSem is the server's batch-aware admission: capacity is measured in
// events, and a frame acquires its event weight before dispatch. acquire
// blocks the read loop when the connection's in-flight work is heavy enough
// — TCP backpressure — and fails once the endpoint starts closing.
type weightedSem struct {
	mu     sync.Mutex
	cond   *sync.Cond
	avail  int
	closed bool
}

func newWeightedSem(n int) *weightedSem {
	s := &weightedSem{avail: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *weightedSem) acquire(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.avail < n && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return false
	}
	s.avail -= n
	return true
}

func (s *weightedSem) release(n int) {
	s.mu.Lock()
	s.avail += n
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *weightedSem) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// muxJob is one admitted request frame awaiting a pool worker.
type muxJob struct {
	corrID uint64
	req    Message
	weight int
}

// muxWorkerPool runs handler jobs on a dynamically sized, bounded set of
// workers: a job spawns a worker only when none is waiting for one and the
// pool is below its cap, and workers exit after an idle timeout — so a
// steady pipeline reuses the same few goroutines instead of paying a
// goroutine-per-frame spawn, while a deep burst still fans out to
// MuxWindow-way concurrency (parked handlers hold workers, as the
// pipelining tests require).
type muxWorkerPool struct {
	work    chan muxJob
	handle  func(muxJob)
	max     int32
	workers atomic.Int32
	// idle is workers waiting for a job minus jobs dispatched and not yet
	// received: every dispatch takes one off, every worker puts one on before
	// it receives. Negative means jobs are queued that no worker is coming
	// for.
	idle atomic.Int32
	wg   sync.WaitGroup
}

func newMuxWorkerPool(max int, handle func(muxJob)) *muxWorkerPool {
	return &muxWorkerPool{
		work:   make(chan muxJob, muxQueueDepth),
		handle: handle,
		max:    int32(max),
	}
}

// dispatch queues one job, growing the pool when no waiting worker is left
// for it: a job is never stranded behind handlers that are all parked.
func (p *muxWorkerPool) dispatch(j muxJob) {
	if p.idle.Add(-1) < 0 && p.workers.Load() < p.max {
		p.workers.Add(1)
		p.wg.Add(1)
		go p.worker()
	}
	p.work <- j
}

func (p *muxWorkerPool) worker() {
	defer p.wg.Done()
	defer p.workers.Add(-1)
	timer := time.NewTimer(muxWorkerIdle)
	defer timer.Stop()
	for {
		p.idle.Add(1)
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(muxWorkerIdle)
		var (
			j  muxJob
			ok bool
		)
		select {
		case j, ok = <-p.work:
		case <-timer.C:
			if p.retire() {
				return
			}
			j, ok = <-p.work // a dispatch counted on this worker: its job is on the way
		}
		if !ok {
			return
		}
		p.handle(j)
	}
}

// retire takes an idle worker off the books, unless every waiting worker is
// already spoken for by a dispatched job.
func (p *muxWorkerPool) retire() bool {
	for {
		n := p.idle.Load()
		if n <= 0 {
			return false
		}
		if p.idle.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// close stops the pool after the queue drains and waits for every worker.
func (p *muxWorkerPool) close() {
	close(p.work)
	p.wg.Wait()
}

// serveMux is the server half of a connection whose preamble named from as
// the caller. Request frames are admitted by event weight, dispatched to the
// bounded worker pool, and responses are coalesced by a writer goroutine, so
// slow handlers never stall the read loop and responses flow back in
// completion order.
//
// Handler contract on this path: every request frame is copied out of the
// read buffer into memory of its own, valid for the handler call *and* any
// response that aliases it — an echo handler returns the request itself, and
// the writer goroutine flushes that response after the handler has returned.
// The copy is therefore never recycled when the handler returns.
func serveMux(conn net.Conn, from NodeID, h Handler, closing <-chan struct{}) {
	respCh := make(chan muxWrite, muxQueueDepth)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		if err := pumpFrames(conn, respCh, nil, nil); err != nil {
			_ = conn.Close() // unblock the read loop; remaining responses are moot
			// Keep draining so pool workers sending responses never block
			// on a dead writer.
			for range respCh {
			}
		}
	}()

	// Handlers get a context cancelled on endpoint shutdown, so long-running
	// work can observe Close instead of wedging the drain below.
	hctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	adm := newWeightedSem(muxServerAdmission)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-closing:
			cancel()
			adm.close()
		case <-stop:
		}
	}()

	pool := newMuxWorkerPool(MuxWindow, func(j muxJob) {
		resp, herr := h(hctx, from, j.req)
		wr := muxWrite{corrID: j.corrID, kind: resp.Kind, payload: resp.Payload}
		if herr == nil && wr.bodyLen() > maxMuxFrame {
			herr = errFrameTooLarge
		}
		if herr != nil {
			// A coded sentinel crosses as itself; anything else reads as
			// CodeUnknown on the caller.
			wr = muxWrite{corrID: j.corrID, code: schema.CodeOf(herr), errMsg: herr.Error()}
		}
		respCh <- wr
		adm.release(j.weight)
	})

	r := bufio.NewReaderSize(conn, muxReadBuffer)
	var buf []byte
	for {
		corrID, kind, _, payload, err := readMuxFrame(r, &buf)
		if err != nil {
			break
		}
		select {
		case <-closing:
			err = errors.New("endpoint closing")
		default:
		}
		if err != nil {
			break
		}
		weight := schema.HotFrameEvents(payload)
		if weight > muxServerAdmission {
			weight = muxServerAdmission
		}
		if !adm.acquire(weight) {
			break // endpoint closing
		}
		// The read buffer is reused; the worker owns a copy, valid for the
		// handler call and any response that aliases it (see above).
		p := make([]byte, len(payload))
		copy(p, payload)
		pool.dispatch(muxJob{corrID: corrID, req: Message{Kind: kind, Payload: p}, weight: weight})
	}
	pool.close()
	close(respCh)
	<-writerDone
}
