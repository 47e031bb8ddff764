package transport

// The mesh's one wire protocol: pipelined, multiplexed connections. An
// endpoint holds one mux connection per peer and every call to that peer
// rides it — submits, forwards, replication hints, store ops, control frames
// and state transfers alike. Each call is stamped with a correlation ID and
// its sender writes its own frame (see muxOut): no writer goroutine, and one
// socket write for every frame queued by the time it starts. The server
// dispatches frames to a bounded worker pool as they arrive, each worker
// writes its handler's response the same way, and a reader goroutine — all
// an idle connection runs on the calling end — matches responses back to
// callers by correlation ID, in whatever order the handlers finish.
//
// Read side. Each end's read loop runs for the connection's whole life inside
// one RawConn.Read (see readFrames): a socket read lands in the connection's
// one buffer, every whole frame in it is parsed in place, and once a read has
// left nothing behind the goroutine parks in the poller until the next
// arrival — one read syscall per arrival, none that only hears EAGAIN. A
// frame's payload aliases the buffer until the next frame, so the client's
// deliver and the server's dispatch copy it into a frame-buffer pool buffer,
// which the server's worker returns once the response is sent and the caller
// once it has decoded it (Message.Release).
//
// Completion plane. Completions are delivered through a per-stream slot
// table instead of one channel per call: a correlation ID encodes its slot
// index in the low bits and a per-slot generation in the high bits, so the
// reader finds the destination slot with a mask, writes the result, and
// drops a token into the slot's own one-deep wake channel. Nothing is
// allocated per call.
//
// Correlation IDs are never reused: the generation increments on every slot
// acquisition, so a late response (its caller timed out and abandoned the
// slot) or a duplicated response can only mismatch the slot's current ID and
// be discarded; it can never be delivered to a newer request. That is why a
// call that times out waiting for a handler leaves the connection alone.
//
// When a connection is replaced. A stream is broken when bytes cannot move
// on it: its reader failed, a write failed, the write of a sender's own frame
// outlasted its context, or a caller's deadline expired waiting for a reply
// with its frame still unwritten (the peer stopped reading, and whoever is
// flushing is wedged behind it). A broken stream fails every call pending on
// it and is never used again; the endpoint dials a fresh one on the next call.
// Nothing else replaces a connection — not a handler error, not a deadline
// that expired waiting for a reply.
//
// Backpressure: the slot freelist doubles as the bounded in-flight window
// (MuxWindow, 1024). When no slot is free, Call blocks until one frees or
// the caller's context expires — pressure propagates to the submitter
// instead of growing an unbounded queue or dropping frames. A flight
// (CallBatch) first awaits its own oldest calls, so one larger than the
// window makes its own room. The server side
// weighs admission by *events*, not frames (schema.HotFrameEvents), so a
// 128-event batch frame takes 128 admission slots and batching cannot be
// used to sidestep the window.
//
// Footprint. A connection that has carried nothing holds one 64 KiB read
// buffer per side and little else (a frame larger than that grows its side's
// buffer to the frame, once): the two pending buffers, one queued into while
// the other is written, grow to what the link's bursts need (the window and
// the admission gate bound that); the read loop → workers queue is short
// (muxQueueDepth); the slot table is allocated a chunk at a time as the
// freelist first reaches each chunk.
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
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
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

// muxQueueDepth is the depth of the read loop → workers queue. The admission
// semaphore bounds what is in flight; the queue only needs to absorb one
// scheduling burst, after which a full queue blocks the read loop.
const muxQueueDepth = 64

// muxServerAdmission bounds the total in-flight event weight (frames
// weighted by their event count) one server connection admits before the
// read loop stops pulling frames off the socket.
const muxServerAdmission = 4 * MuxWindow

// muxWorkerIdle is the period of an endpoint's reaper: a pool grows on
// demand up to MuxWindow workers, and every period the reaper retires the
// workers the period never needed.
const muxWorkerIdle = time.Second

// maxMuxFrame bounds a frame body so a corrupt length prefix cannot demand
// an absurd allocation. It is the largest request or response the mesh
// carries — a migration's state transfer included.
const maxMuxFrame = 64 << 20

// muxReadBuffer is each side's socket read buffer, unless a larger frame has
// grown it: one read syscall drains up to this much of a burst.
const muxReadBuffer = 64 << 10

// muxFlushBytes is how much a corked sender queues before it flushes without
// waiting for its burst to end, and muxDirectPayload the payload size from
// which a frame is not copied into the pending buffer at all but gathered from
// the caller's memory.
const (
	muxFlushBytes    = 64 << 10
	muxDirectPayload = 16 << 10
)

// muxCaptureWrites is how many socket writes a sender performs for other
// senders once its own frame is out: on many cores frames can arrive as fast
// as it writes them, so past this it hands the flush role to a transient
// drain goroutine and goes to wait for its reply.
const muxCaptureWrites = 2

// muxKinds bounds a connection's kind intern table (the mesh has about a
// dozen kinds); a kind past the bound is merely allocated.
const muxKinds = 32

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

// muxFrame is one parsed frame. herr is the handler error an error frame
// carries (Node unset; a code byte this build has no row for reads as
// CodeUnknown), nil on requests and successes. payload aliases the read
// buffer until the next frame is parsed.
type muxFrame struct {
	corrID  uint64
	kind    string
	herr    *RemoteError
	payload []byte
}

// frameReader is one connection's read side: the buffer every socket read
// lands in and every frame is parsed from in place, and an intern table of
// the kinds the connection has carried — a handful of constants — so that
// reading a frame allocates nothing.
type frameReader struct {
	buf   []byte
	r, w  int // buf[r:w] is read and not yet parsed
	kinds []string
	oob   [32]byte // a read's control message: see readFrames
}

// next parses the next whole frame in the buffer; ok is false when less than
// one is there. A malformed frame is an error, and the connection is then
// unusable.
func (fr *frameReader) next() (f muxFrame, ok bool, err error) {
	b := fr.buf[fr.r:fr.w]
	if len(b) < 4 {
		return f, false, nil
	}
	n := binary.BigEndian.Uint32(b)
	if n < 8 || n > maxMuxFrame {
		return f, false, fmt.Errorf("transport: bad mux frame length %d", n)
	}
	if uint32(len(b)-4) < n {
		return f, false, nil
	}
	fr.r += 4 + int(n)
	body := b[4 : 4+n]
	f.corrID = binary.BigEndian.Uint64(body)
	rest := body[8:]
	take := func() ([]byte, error) {
		ln, sz := binary.Uvarint(rest)
		if sz <= 0 || uint64(len(rest)-sz) < ln {
			return nil, fmt.Errorf("transport: corrupt mux frame field")
		}
		fld := rest[sz : sz+int(ln)]
		rest = rest[sz+int(ln):]
		return fld, nil
	}
	kb, err := take()
	if err != nil {
		return f, false, err
	}
	if len(rest) == 0 {
		return f, false, fmt.Errorf("transport: mux frame has no code byte")
	}
	code := schema.Code(rest[0])
	rest = rest[1:]
	if code != schema.CodeOK {
		mb, err := take()
		if err != nil {
			return f, false, err
		}
		if code >= schema.NumCodes {
			code = schema.CodeUnknown
		}
		f.herr = &RemoteError{Code: code, Msg: string(mb)}
	}
	f.kind, f.payload = fr.intern(kb), rest
	return f, true, nil
}

// pooledCopy is f as a message that owns a pooled copy of its payload.
func pooledCopy(f muxFrame) Message {
	buf := schema.GetFrameBuf()
	*buf = append(*buf, f.payload...)
	return PooledMessage(f.kind, buf)
}

func (fr *frameReader) intern(kind []byte) string {
	for _, k := range fr.kinds {
		if string(kind) == k {
			return k
		}
	}
	k := string(kind)
	if len(fr.kinds) < muxKinds {
		fr.kinds = append(fr.kinds, k)
	}
	return k
}

// space readies the buffer for the next read and returns where it lands: a
// partial frame moves to the front, and the buffer grows to hold a frame
// larger than it (next has bounded the length), keeping that size after.
func (fr *frameReader) space() []byte {
	if fr.r > 0 {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	need := muxReadBuffer
	if fr.w >= 4 {
		need = max(need, 4+int(binary.BigEndian.Uint32(fr.buf)))
	}
	if len(fr.buf) < need {
		grown := make([]byte, need)
		copy(grown, fr.buf[:fr.w])
		fr.buf = grown
	}
	return fr.buf[fr.w:]
}

// tcpINQ is Linux's TCP_INQ socket option: with it set, recvmsg reports in a
// control message how many bytes are left to read, a pending FIN counting as
// one.
const tcpINQ = 36

// readFrames reads conn for the connection's whole life and hands on every
// frame in arrival order, until a read fails, a frame is malformed or on
// fails; it returns why. A TCP connection is read inside one RawConn.Read,
// and a read that TCP_INQ says left nothing behind returns to the poller,
// which parks the goroutine until the next arrival: readiness is forgotten
// only on entry to RawConn.Read, so an arrival after the read wakes the wait
// at once. (A short read would not say enough: a FIN that came with the last
// data leaves no readiness behind.) Without TCP_INQ the loop reads until
// EAGAIN; a conn without a descriptor is read with plain Reads.
//
// conn.Close waits for a reader inside RawConn.Read to return, so nothing
// that on may wait for closes conn synchronously.
func (fr *frameReader) readFrames(conn net.Conn, on func(muxFrame) error) error {
	parse := func(n int) error {
		fr.w += n
		for {
			f, ok, err := fr.next()
			if !ok {
				return err
			}
			if err := on(f); err != nil {
				return err
			}
		}
	}
	sc, ok := conn.(syscall.Conn)
	if !ok {
		for {
			n, err := conn.Read(fr.space())
			if perr := parse(n); perr != nil {
				return perr
			}
			if err != nil {
				return err
			}
		}
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	_ = raw.Control(func(fd uintptr) {
		_ = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, tcpINQ, 1)
	})
	var ferr error
	if err := raw.Read(func(fd uintptr) bool {
		for {
			n, oobn, _, _, err := syscall.Recvmsg(int(fd), fr.space(), fr.oob[:], 0)
			muxSocketReads.Add(1)
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EAGAIN:
				return false
			case err != nil:
				ferr = os.NewSyscallError("recvmsg", err)
				return true
			case n == 0:
				ferr = io.EOF
				return true
			}
			if raceEnabled {
				// The race detector orders socket I/O only through
				// syscall.Read and Write; recvmsg has no annotation, so an
				// empty Read acquires what the peer's writes released.
				_, _ = syscall.Read(int(fd), nil)
			}
			if ferr = parse(n); ferr != nil {
				return true
			}
			if unread(fr.oob[:oobn]) == 0 {
				return false
			}
		}
	}); err != nil {
		return err
	}
	return ferr
}

// unread is what the TCP_INQ control message in oob — the only one the
// socket asked for — says is left to read, or 1 when oob holds none: without
// it only EAGAIN says the socket is drained.
func unread(oob []byte) int {
	if len(oob) < syscall.CmsgLen(4) {
		return 1
	}
	return int(int32(binary.NativeEndian.Uint32(oob[syscall.CmsgLen(0):])))
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

// ---- write half ----

// aLongTimeAgo is a deadline that has always passed.
var aLongTimeAgo = time.Unix(1, 0)

// muxOut is the write half of a connection, shared by every sender on it:
// callers on the calling end, pool workers on the serving end. A sender
// appends its whole frame to buf under mu and, if no flush is in progress,
// takes the flush role and writes what is queued — its own frame and every
// frame other senders queue meanwhile, which is what folds a burst into one
// socket write; a sender that finds the role taken leaves its frame to that
// flusher. mu is never held across a socket write.
type muxOut struct {
	conn net.Conn
	// bounded is set on the calling end, where a flusher's context bounds the
	// write that carries its own frame: no second goroutine is there to notice
	// that a sender stuck in Write has expired. The serving end leaves the
	// socket's write deadline to the endpoint's Close.
	bounded bool
	broke   func(error) // hears, outside mu, of a failed write: it shuts o and ends the connection

	mu       sync.Mutex
	buf      []byte        // frames queued for the next write
	queued   uint64        // frames ever queued; the n-th is on the socket once written >= n
	written  uint64        // frames ever written
	flushing bool          // the flush role is taken
	watch    uint64        // names the role holder whose cancellation is watched, else 0
	waiting  int           // gathered senders waiting for the role
	freed    chan struct{} // made by one of them, closed at the role's release
	err      error         // why nothing more will be written; sticky

	spare  []byte // the buffer last written, the next to queue into; the role holder's
	drains sync.WaitGroup
}

// send queues one frame and returns its place in the write order, having
// flushed the buffer unless another sender is doing so — or, under cork,
// unless less than muxFlushBytes are queued: a corked sender is inside a
// burst that it ends with an uncorked send or a kick. A payload too large to
// copy is gathered: its sender waits for the flush role under its context (a
// deadline that expires there says nothing about the connection), queues the
// header, and writes what is queued and the payload in one gathered write.
// Once send returns, whatever it returns, nobody reads wr.payload any more.
func (o *muxOut) send(ctx context.Context, wr *muxWrite, cork bool) (seq uint64, err error) {
	var direct []byte
	if len(wr.payload) >= muxDirectPayload {
		direct = wr.payload
	}
	o.mu.Lock()
	for direct != nil && o.flushing && o.err == nil {
		if o.freed == nil {
			o.freed = make(chan struct{})
		}
		freed := o.freed
		o.waiting++
		o.mu.Unlock()
		select {
		case <-freed:
		case <-ctx.Done():
		}
		o.mu.Lock()
		o.waiting--
		if ctx.Err() != nil {
			o.relay() // a flusher may just have stepped aside for this sender
			return 0, ctx.Err()
		}
	}
	if err = o.err; err != nil {
		o.mu.Unlock()
		return 0, err
	}
	o.buf = wr.appendHeader(o.buf)
	if direct == nil {
		o.buf = append(o.buf, wr.payload...)
	}
	o.queued++
	seq = o.queued
	if cork && direct == nil && len(o.buf) < muxFlushBytes {
		o.mu.Unlock()
		return seq, nil
	}
	return seq, o.lead(ctx, direct)
}

// kick flushes what is queued, if anything is and nobody is flushing it. A
// write that fails breaks the stream, which is how its callers hear of it.
func (o *muxOut) kick(ctx context.Context) {
	o.mu.Lock()
	_ = o.lead(ctx, nil)
}

// lead takes the flush role if it is free and frames are queued, and flushes;
// mu is held on entry. A gathered sender detaches the buffer under the lock
// that queued its header, so that nothing comes between the header and direct;
// anyone else yields first.
func (o *muxOut) lead(ctx context.Context, direct []byte) error {
	if o.flushing || len(o.buf) == 0 || o.err != nil {
		o.mu.Unlock()
		return nil
	}
	o.flushing = true
	if direct == nil && len(o.buf) < muxFlushBytes/2 {
		o.mu.Unlock()
		// Load-bearing: senders that just woke from the previous flush, or
		// handlers finishing right now, are about to queue, and folding their
		// frames into this write is what turns N round-trip syscalls into one.
		runtime.Gosched()
		o.mu.Lock()
	}
	out, n := o.detach()
	o.mu.Unlock()
	return o.flush(ctx, out, direct, n, muxCaptureWrites)
}

// detach takes what is queued, n frames, for the role holder to write, and
// leaves senders the other buffer to queue into; the caller holds mu.
func (o *muxOut) detach() (out []byte, n uint64) {
	out, n = o.buf, o.queued-o.written
	o.buf = o.spare[:0]
	return out, n
}

// flush is run by the holder of the flush role with what it detached: out, n
// frames, the caller's own among them. It writes out and direct in one write
// bound by ctx, and returns how that went. Before it returns it writes what
// other senders queued meanwhile, in up to more further writes — bound by
// those senders' waits (see giveUp), not by ctx, whose frame is out — unless
// a gathered sender is waiting to write it instead; what is queued after the
// last of them is a drain goroutine's.
func (o *muxOut) flush(ctx context.Context, out, direct []byte, n uint64, more int) error {
	bound := o.bounded
	if bound {
		if unwatch := o.bind(ctx); unwatch != nil {
			defer unwatch()
		}
	}
	err := o.write(out, direct, n)
	for ok := err == nil; ; more-- {
		o.mu.Lock()
		if ok {
			o.written += n
		}
		o.spare, o.watch = out[:0], 0
		switch {
		case o.err != nil || len(o.buf) == 0 || o.waiting > 0:
			o.flushing = false
			if o.freed != nil {
				close(o.freed)
				o.freed = nil
			}
		case more == 0:
			o.startDrain()
		default:
			out, n = o.detach()
			o.mu.Unlock()
			if bound {
				bound = false
				_ = o.conn.SetWriteDeadline(time.Time{})
			}
			ok = o.write(out, nil, n) == nil
			continue
		}
		o.mu.Unlock()
		return err
	}
}

// write puts out, n frames, and direct after it on the socket. A failure
// breaks the connection.
func (o *muxOut) write(out, direct []byte, n uint64) (err error) {
	if direct != nil {
		bufs := net.Buffers{out, direct}
		_, err = bufs.WriteTo(o.conn)
	} else {
		_, err = o.conn.Write(out)
	}
	if err != nil {
		o.broke(err) // shuts o
		return err
	}
	muxSocketWrites.Add(1)
	muxFramesWritten.Add(n)
	return nil
}

// relay starts a drain if frames are queued and nobody holds the flush role:
// for a sender that will not flush them itself. mu is held on entry.
func (o *muxOut) relay() {
	if !o.flushing && len(o.buf) > 0 && o.err == nil {
		o.flushing = true
		o.startDrain()
	}
	o.mu.Unlock()
}

// startDrain hands the flush role to a transient goroutine that holds it for
// nobody, until the buffer is empty; the caller holds mu and the role.
func (o *muxOut) startDrain() {
	out, n := o.detach()
	o.drains.Add(1)
	go func() {
		defer o.drains.Done()
		_ = o.flush(context.Background(), out, nil, n, -1) // flush has told broke
	}()
}

// bind puts ctx in charge of the role holder's next write. Every flusher sets
// the write deadline, so that no write inherits an earlier one's. A context
// that can only be cancelled is watched instead: its cancellation moves the
// deadline into the past, unless that write is over by then. The returned
// function, when there is one, ends the watch.
func (o *muxOut) bind(ctx context.Context) (unwatch func() bool) {
	at, timed := ctx.Deadline()
	_ = o.conn.SetWriteDeadline(at)
	if timed || ctx.Done() == nil {
		return nil
	}
	o.mu.Lock()
	token := o.written + 1 // this holder's alone: its write moves written on
	o.watch = token
	o.mu.Unlock()
	return context.AfterFunc(ctx, func() {
		o.mu.Lock()
		if o.watch == token {
			_ = o.conn.SetWriteDeadline(aLongTimeAgo)
		}
		o.mu.Unlock()
	})
}

// shut stops further writes, for err unless a reason is already recorded: a
// flusher stops at its next look, and no drain starts after shut returns.
func (o *muxOut) shut(err error) {
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

// ---- client stream ----

// muxSlot is one entry of the completion plane. The owner (the caller
// holding the slot between acquire and release) and the reader synchronize
// on mu; gen and seq are touched only by owners while they hold the slot, so
// they survive across uses without wider locking.
type muxSlot struct {
	mu   sync.Mutex
	corr uint64 // current correlation ID; 0 = no caller listening
	done bool
	msg  Message
	err  error
	gen  uint64
	seq  uint64 // the request frame's place in the stream's write order
	// wake is one deep. The reader drops a token in after completing the
	// slot; a woken owner re-checks the slot, so a token left by a call that
	// was abandoned only costs the next owner one extra look.
	wake chan struct{}
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

// close closes the slot for delivery without completing it.
func (sl *muxSlot) close() {
	sl.mu.Lock()
	sl.corr, sl.done, sl.msg, sl.err = 0, false, Message{}, nil
	sl.mu.Unlock()
}

// muxStream is the client half of a multiplexed connection.
type muxStream struct {
	to    NodeID
	conn  net.Conn
	owner *tcpEndpoint // untracks the stream on Close; nil in tests
	out   muxOut

	slots [MuxWindow / muxSlotChunk]atomic.Pointer[[muxSlotChunk]muxSlot]
	free  chan uint32 // slot freelist; doubles as the in-flight window

	done chan struct{} // closed when the stream fails, after out is shut with the reason
	once sync.Once
	wg   sync.WaitGroup
}

var _ Stream = (*muxStream)(nil)

// dialMux opens a mux stream over an established connection, sending the
// preamble and starting the reader goroutine.
func dialMux(conn net.Conn, from, to NodeID) (*muxStream, error) {
	var pre [12]byte
	copy(pre[:4], muxMagic[:])
	binary.BigEndian.PutUint64(pre[4:], uint64(int64(from)))
	if _, err := conn.Write(pre[:]); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("mux preamble to %v: %w", to, err)
	}
	s := &muxStream{
		to:   to,
		conn: conn,
		free: make(chan uint32, MuxWindow),
		done: make(chan struct{}),
	}
	s.out.conn, s.out.bounded = conn, true
	s.out.broke = func(err error) {
		s.fail(fmt.Errorf("mux write to %v: %w: %w", to, err, ErrStreamBroken)) // err kept: a timeout is the sender's
	}
	for i := uint32(0); i < MuxWindow; i++ {
		s.free <- i
	}
	s.wg.Add(1)
	muxStreamsOpen.Add(1)
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
		s.out.shut(err)
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
	s.out.drains.Wait()
	if s.owner != nil {
		s.owner.untrack(s)
	}
	return nil
}

// reader matches inbound frames to completion slots by correlation ID. A
// frame whose ID mismatches its slot's current ID — its caller timed out,
// or a faulty network duplicated the response — is discarded: IDs are never
// reused, so it cannot belong to a newer call.
func (s *muxStream) reader() {
	defer s.wg.Done()
	var fr frameReader
	err := fr.readFrames(s.conn, s.deliver)
	// Only now, out of the read, may the connection be closed here.
	s.fail(fmt.Errorf("mux read from %v: %w: %w", s.to, err, ErrStreamBroken))
}

// slot returns the completion slot for idx, nil when its chunk of the table
// has never been armed.
func (s *muxStream) slot(idx uint32) *muxSlot {
	if c := s.slots[idx/muxSlotChunk].Load(); c != nil {
		return &c[idx%muxSlotChunk]
	}
	return nil
}

// deliver writes one response into its slot and wakes the slot's owner.
func (s *muxStream) deliver(f muxFrame) error {
	sl := s.slot(uint32(f.corrID & (MuxWindow - 1)))
	if sl == nil {
		muxDroppedResponses.Add(1)
		return nil // an ID this stream never issued
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.corr != f.corrID || sl.done {
		muxDroppedResponses.Add(1)
		return nil // late or duplicated response: no caller, drop it
	}
	if f.herr != nil {
		f.herr.Node = s.to
		sl.err = f.herr
	} else {
		// The read buffer is reused for the next frame; the payload handed
		// to the caller owns a pooled copy, which the caller releases.
		sl.msg = pooledCopy(f)
	}
	sl.done = true
	select {
	case sl.wake <- struct{}{}:
	default: // a token is already waiting
	}
	return nil
}

// acquire takes a free completion slot (the backpressure point). A deadline
// that expires here waited on the window, not the wire: the stream is fine.
func (s *muxStream) acquire(ctx context.Context, fl *flight) (uint32, error) {
	var idx uint32
	select {
	case idx = <-s.free:
	default:
		// About to wait for a reply to free a slot: the frames a corked burst
		// has queued so far are among those it waits on. A flight awaits its
		// own oldest calls first while the window stays full, so that one
		// larger than the window makes its own room: it blocks below only
		// with no call of its own in flight, or having just seen a slot free.
		s.out.kick(ctx)
		for fl != nil && len(s.free) == 0 && fl.next(ctx) {
		}
		select {
		case idx = <-s.free:
		case <-ctx.Done():
			return 0, s.timeoutErr()
		case <-s.done:
			return 0, s.brokenErr()
		}
	}
	if s.isBroken() {
		s.free <- idx
		return 0, s.brokenErr()
	}
	muxSlotsInUse.Add(1)
	return idx, nil
}

// arm stamps a fresh, never-before-used correlation ID onto an acquired
// slot and opens it for delivery.
func (s *muxStream) arm(idx uint32) (*muxSlot, uint64) {
	sl := s.slot(idx)
	if sl == nil {
		chunk := new([muxSlotChunk]muxSlot)
		for i := range chunk {
			chunk[i].wake = make(chan struct{}, 1)
		}
		s.slots[idx/muxSlotChunk].CompareAndSwap(nil, chunk)
		sl = s.slot(idx)
	}
	sl.mu.Lock()
	sl.gen++
	corr := sl.gen<<muxSlotShift | uint64(idx)
	sl.corr = corr
	sl.done, sl.msg, sl.err = false, Message{}, nil
	sl.mu.Unlock()
	return sl, corr
}

// release returns a slot to the freelist.
func (s *muxStream) release(idx uint32) {
	muxSlotsInUse.Add(-1)
	s.free <- idx
}

// send takes a slot for req — on behalf of fl, when it is a flight's — and
// writes its frame, or under cork queues it (see muxOut.send). A context that
// is already done never reaches the stream, and one that expires before the
// frame is queued waited on the window or on the flush role: neither says
// anything about the connection. A write that fails has broken the stream;
// the sender whose own deadline cut the write short gets ErrCallTimeout like
// any other caller whose deadline passed with its frame unflushed.
func (s *muxStream) send(ctx context.Context, req Message, cork bool, fl *flight) (uint32, error) {
	wr := muxWrite{kind: req.Kind, payload: req.Payload}
	if wr.bodyLen() > maxMuxFrame {
		return 0, fmt.Errorf("mux call to %v: %w", s.to, errFrameTooLarge)
	}
	select {
	case <-ctx.Done():
		return 0, s.timeoutErr()
	default:
	}
	idx, err := s.acquire(ctx, fl)
	if err != nil {
		return 0, err
	}
	sl, corr := s.arm(idx)
	wr.corrID = corr
	if sl.seq, err = s.out.send(ctx, &wr, cork); err == nil {
		return idx, nil
	}
	sl.close()
	s.release(idx)
	if isTimeout(err) || ctx.Err() != nil {
		return 0, s.timeoutErr()
	}
	return 0, s.brokenErr()
}

// giveUp abandons a sent call whose result will not be taken. With waited set
// it is where a caller that waited for the reply decides what its expired
// deadline says about the connection: a frame that reached the socket was
// waiting on the handler, and the stream is left alone (the late reply
// mismatches the slot's next ID and is dropped); a frame still unwritten
// means bytes are not moving, and the stream is broken — which also unblocks
// whoever is stuck writing. The request payload is not at stake: send copied
// or wrote it.
func (s *muxStream) giveUp(idx uint32, waited bool) {
	sl := s.slot(idx)
	sl.close()
	s.out.mu.Lock()
	stalled := waited && s.out.written < sl.seq
	s.out.mu.Unlock()
	if stalled {
		s.fail(fmt.Errorf("mux write to %v stalled past a caller's wait: %w", s.to, ErrStreamBroken))
	}
	s.release(idx)
}

// await parks on the slot's wake channel until the reader completes the
// slot, the context expires, or the stream breaks, and returns the reply or
// why there is none: the handler's RemoteError, the timeout or the break. In
// every case the slot is back on the freelist when await returns.
func (s *muxStream) await(ctx context.Context, idx uint32) (Message, error) {
	sl := s.slot(idx)
	var fatal error
	for {
		if m, err, ok := sl.take(); ok {
			s.release(idx)
			return m, err
		}
		if fatal != nil {
			s.giveUp(idx, true)
			return Message{}, fatal
		}
		// On either failure, look once more: a completion may have raced it.
		select {
		case <-sl.wake:
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
	idx, err := s.send(ctx, req, false, nil)
	if err != nil {
		return Message{}, err
	}
	return s.await(ctx, idx)
}

// CallBatch implements Stream: reqs fly as one flight on this stream.
func (s *muxStream) CallBatch(ctx context.Context, reqs []Message) ([]Message, []error, error) {
	calls := make([]Call, len(reqs))
	for i := range reqs {
		calls[i] = Call{To: s.to, Req: reqs[i]}
	}
	(&flight{calls: calls}).fly(ctx, func(NodeID) (*muxStream, error) { return s, nil })
	msgs, errs := make([]Message, len(reqs)), make([]error, len(reqs))
	for i, c := range calls {
		var herr *RemoteError
		if c.Err != nil && !errors.As(c.Err, &herr) {
			return nil, nil, c.Err
		}
		msgs[i], errs[i] = c.Resp, c.Err
	}
	return msgs, errs, nil
}

// flight is one CallBatch over mux streams: its calls, how many have been
// sent, and the oldest that may still be waiting for its reply.
type flight struct {
	calls    []Call
	sent, lo int
}

// fly sends every call on the stream link names for its peer, one link per
// run of calls to one peer and every frame of the run but its last corked, so
// that the run leaves in one write; then it awaits every reply, oldest first.
// A call whose send fails has its outcome at once. If it was its run's last,
// a drain writes the frames the run corked — under no deadline of the
// caller's, which may be why the send failed — and when ctx has expired their
// calls are abandoned unawaited: that they are not written yet says nothing
// about the connection.
func (fl *flight) fly(ctx context.Context, link func(NodeID) (*muxStream, error)) {
	var (
		s         *muxStream
		linkErr   error
		run       int  // the current run's first call
		unflushed bool // the run has frames corked on s
	)
	for i := range fl.calls {
		c := &fl.calls[i]
		if i == 0 || fl.calls[i-1].To != c.To {
			run, unflushed = i, false
			s, linkErr = link(c.To)
		}
		last := i+1 == len(fl.calls) || fl.calls[i+1].To != c.To
		err := linkErr
		if err == nil {
			c.idx, err = s.send(ctx, c.Req, !last, fl)
		}
		fl.sent++
		if err == nil {
			c.s, unflushed = s, !last
			continue
		}
		if c.Err = err; !last || !unflushed {
			continue
		}
		s.out.mu.Lock()
		s.out.relay()
		for j := run; j < i && ctx.Err() != nil; j++ {
			if d := &fl.calls[j]; d.s != nil {
				s.giveUp(d.idx, false)
				d.s, d.Err = nil, err
			}
		}
	}
	for fl.next(ctx) {
	}
}

// next awaits the reply of the flight's oldest sent call still waiting for
// one, and reports whether there was such a call.
func (fl *flight) next(ctx context.Context) bool {
	for ; fl.lo < fl.sent; fl.lo++ {
		if c := &fl.calls[fl.lo]; c.s != nil {
			c.Resp, c.Err = c.s.await(ctx, c.idx)
			c.s = nil
			return true
		}
	}
	return false
}

func (s *muxStream) timeoutErr() error {
	return fmt.Errorf("mux call to %v: %w", s.to, ErrCallTimeout)
}

// brokenErr is why the stream failed.
func (s *muxStream) brokenErr() error {
	s.out.mu.Lock()
	defer s.out.mu.Unlock()
	return s.out.err
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

// muxJob is one admitted request frame awaiting a pool worker — or, with
// retire set, the reaper telling the worker that receives it to exit.
type muxJob struct {
	corrID uint64
	req    Message
	weight int
	retire bool
}

// muxWorkerPool runs handler jobs on a dynamically sized, bounded set of
// workers: a job spawns a worker only when none is waiting for one and the
// pool is below its cap, and the endpoint's reaper retires the workers a
// whole muxWorkerIdle period did not need — so a steady pipeline reuses the
// same few goroutines instead of paying a goroutine-per-frame spawn, while a
// deep burst still fans out to MuxWindow-way concurrency (parked handlers
// hold workers, as the pipelining tests require).
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
	// low is the least idle has been since the last reap: the workers with
	// nothing to do all period. A lost update costs one respawn.
	low atomic.Int32
	wg  sync.WaitGroup

	mu     sync.Mutex // orders reap's sends before close
	closed bool
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
	idle := p.idle.Add(-1)
	if idle < 0 && p.workers.Load() < p.max {
		p.workers.Add(1)
		p.wg.Add(1)
		go p.worker()
	}
	if idle < p.low.Load() {
		p.low.Store(idle)
	}
	p.work <- j
}

func (p *muxWorkerPool) worker() {
	defer p.wg.Done()
	defer p.workers.Add(-1)
	for {
		p.idle.Add(1)
		j, ok := <-p.work
		if !ok || j.retire {
			return
		}
		p.handle(j)
	}
}

// reap retires the workers that sat idle since the last reap. Each is taken
// off the books as a dispatch would take it, so the worker that receives the
// sentinel is one no job was counting on; a worker a racing dispatch spoke
// for first waits for the next reap.
func (p *muxWorkerPool) reap() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for n := p.low.Swap(p.idle.Load()); n > 0; n-- {
		if idle := p.idle.Load(); idle <= 0 || !p.idle.CompareAndSwap(idle, idle-1) {
			return
		}
		p.work <- muxJob{retire: true}
	}
}

// close stops the pool after the queue drains and waits for every worker.
func (p *muxWorkerPool) close() {
	p.mu.Lock()
	p.closed = true
	close(p.work)
	p.mu.Unlock()
	p.wg.Wait()
}

// serveMux is the server half of a connection whose preamble named from as
// the caller. Request frames are admitted by event weight and dispatched to
// the bounded worker pool — handed to track, for the endpoint's reaper — and
// each worker writes its handler's response itself, so slow handlers never
// stall the read loop and responses flow back in completion order.
//
// Handler contract on this path: every request frame is copied out of the
// read buffer into a pooled buffer of its own, valid for the handler call
// *and* any response that aliases it — an echo handler returns the request
// itself, and the response is read once more after the handler has returned,
// when its worker copies it into the pending buffer or writes it to the
// socket. The copy is therefore recycled once its response is sent, and so
// is a pooled response (PooledMessage).
func serveMux(conn net.Conn, from NodeID, h Handler, closing <-chan struct{}, track func(*muxWorkerPool)) {
	// A failed write ends the read loop, which may be waiting on the very
	// worker that hears of it: a past read deadline ends it without waiting
	// for it, as Close would.
	out := &muxOut{conn: conn}
	out.broke = func(err error) {
		out.shut(err)
		_ = conn.SetReadDeadline(aLongTimeAgo)
	}

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
		_, _ = out.send(context.Background(), &wr, false) // out has told broke
		// Nobody reads either payload any more (see send); an echo is its
		// request, released once.
		if resp.buf != j.req.buf {
			resp.Release()
		}
		j.req.Release()
		adm.release(j.weight)
	})
	track(pool)

	var fr frameReader
	_ = fr.readFrames(conn, func(f muxFrame) error {
		select {
		case <-closing:
			return ErrClosed
		default:
		}
		weight := min(schema.HotFrameEvents(f.payload), muxServerAdmission)
		if !adm.acquire(weight) {
			return ErrClosed
		}
		// The read buffer is reused; the worker owns a pooled copy, valid for
		// the handler call and any response that aliases it (see above).
		pool.dispatch(muxJob{corrID: f.corrID, req: pooledCopy(f), weight: weight})
		return nil
	})
	// Once its worker has exited a response is written, or with a drain.
	pool.close()
	out.drains.Wait()
}
