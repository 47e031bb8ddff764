package transport

// Pipelined, multiplexed connections. The one-shot TCP protocol is strictly
// request/response — one outstanding call per connection — so a remote
// submit costs a full round trip and the wire idles between frames. A mux
// connection instead carries many in-flight requests: each call is stamped
// with a correlation ID, a writer goroutine coalesces queued frames into
// single buffered flushes (writev-style — one syscall covers every frame
// queued while the previous flush was in flight), the server dispatches
// frames to a bounded worker pool as they arrive, and a reader goroutine
// matches responses back to callers by correlation ID, in whatever order
// the handlers finish.
//
// Completion plane. Completions are delivered through a fixed per-stream
// slot table instead of one channel per call: a correlation ID encodes its
// slot index in the low bits and a per-slot generation in the high bits, so
// the reader finds the destination slot with a mask, writes the result, and
// wakes the caller through one of a small set of striped notifiers. A burst
// of responses arriving in one read batch wakes each touched stripe once —
// not once per call — which is what removes the per-event channel allocation
// and wakeup that dominated the pipelined submit path (BENCH_6's residual).
//
// Correlation IDs are still never reused: the generation increments on every
// slot acquisition, so a late response (its caller timed out and abandoned
// the slot) or a duplicated response can only mismatch the slot's current ID
// and be discarded; it can never be delivered to a newer request.
//
// Backpressure: the slot freelist doubles as the bounded in-flight window
// (MuxWindow, 1024). When no slot is free, Call blocks until one frees or
// the caller's context expires — pressure propagates to the submitter
// instead of growing an unbounded queue or dropping frames. The server side
// weighs admission by *events*, not frames (schema.HotFrameEvents), so a
// 128-event batch frame takes 128 admission slots and batching cannot be
// used to sidestep the window.
//
// Wire format (unchanged since PR 6). A mux connection opens with a 12-byte
// preamble:
//
//	[4]byte{0xA7, 'M', 'X', '1'}   magic (0xA7 never begins a gob stream)
//	uint64 BE                      caller's NodeID
//
// then carries length-prefixed frames in both directions:
//
//	uint32 BE      frame length (bytes that follow; ≤ 64 MiB)
//	uint64 BE      correlation ID
//	uvarint+bytes  kind
//	uvarint+bytes  err (responses; empty on requests and successes)
//	rest           payload

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
// an absurd allocation.
const maxMuxFrame = 64 << 20

// ErrStreamBroken is returned by calls pending on a mux stream whose
// connection failed; the stream is dead and must be reopened.
var ErrStreamBroken = errors.New("transport: mux stream broken")

// writeMuxFrame appends one frame to w using scratch for the header; the
// payload bytes are written directly (bufio coalesces them into the next
// flush).
func writeMuxFrame(w *bufio.Writer, scratch []byte, corrID uint64, kind, errStr string, payload []byte) error {
	body := 8 + uvarintLen(uint64(len(kind))) + len(kind) +
		uvarintLen(uint64(len(errStr))) + len(errStr) + len(payload)
	if body > maxMuxFrame {
		return fmt.Errorf("transport: mux frame too large (%d bytes)", body)
	}
	scratch = binary.BigEndian.AppendUint32(scratch[:0], uint32(body))
	scratch = binary.BigEndian.AppendUint64(scratch, corrID)
	scratch = binary.AppendUvarint(scratch, uint64(len(kind)))
	scratch = append(scratch, kind...)
	scratch = binary.AppendUvarint(scratch, uint64(len(errStr)))
	scratch = append(scratch, errStr...)
	if _, err := w.Write(scratch); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readMuxFrame reads one frame, reusing *buf for the body. The returned
// kind/err/payload alias *buf and are only valid until the next call.
func readMuxFrame(r io.Reader, buf *[]byte) (corrID uint64, kind, errStr string, payload []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", "", nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 8 || n > maxMuxFrame {
		return 0, "", "", nil, fmt.Errorf("transport: bad mux frame length %d", n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, "", "", nil, err
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
		return 0, "", "", nil, err
	}
	eb, err := take()
	if err != nil {
		return 0, "", "", nil, err
	}
	return corrID, string(kb), string(eb), rest, nil
}

// ---- flush barriers ----

// flushBarrier is the write barrier between a caller that may recycle its
// pooled request payload and the writer goroutine that flushes it. It is
// pooled (one barrier per call was measurable churn at depth ≥256): the
// writer signals with a token send (a closed channel could not be reused)
// and the last of the two references — caller and writer — drains any
// unconsumed token and returns the barrier to the pool.
type flushBarrier struct {
	ch   chan struct{}
	refs atomic.Int32
}

var barrierPool = sync.Pool{
	New: func() any { return &flushBarrier{ch: make(chan struct{}, 1)} },
}

func getFlushBarrier() *flushBarrier {
	fb := barrierPool.Get().(*flushBarrier)
	fb.refs.Store(2)
	return fb
}

// signal marks the barrier's frame flushed. Writer side, called once.
func (fb *flushBarrier) signal() {
	select {
	case fb.ch <- struct{}{}:
	default:
	}
}

// release drops one reference; the last reference recycles the barrier. A
// barrier stranded in the write queue of a failed stream keeps its writer
// reference forever and is simply garbage collected.
func (fb *flushBarrier) release() {
	if fb.refs.Add(-1) == 0 {
		select {
		case <-fb.ch:
		default:
		}
		barrierPool.Put(fb)
	}
}

// ---- client stream ----

// muxWrite is one queued outbound frame.
type muxWrite struct {
	corrID  uint64
	kind    string
	errStr  string
	payload []byte
	// flushed, when non-nil, is signalled once the frame (and everything
	// queued before it) has been flushed to the socket — the write barrier
	// callers releasing pooled payload buffers need.
	flushed *flushBarrier
}

// muxSlot is one entry of the completion plane. The owner (the caller
// holding the slot between acquire and release) and the reader synchronize
// on mu; gen is touched only by owners while they hold the slot, so it
// survives across uses without wider locking.
type muxSlot struct {
	mu   sync.Mutex
	corr uint64 // current correlation ID; 0 = no caller listening
	done bool
	msg  Message
	err  error
	gen  uint64
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
	to   NodeID
	conn net.Conn

	writeCh chan muxWrite

	slots   []muxSlot
	free    chan uint32 // slot freelist; doubles as the in-flight window
	stripes [muxNotifyStripes]notifyStripe

	mu     sync.Mutex
	broken error

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

var (
	_ Stream      = (*muxStream)(nil)
	_ BatchCaller = (*muxStream)(nil)
)

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
		to:      to,
		conn:    conn,
		writeCh: make(chan muxWrite, MuxWindow),
		slots:   make([]muxSlot, MuxWindow),
		free:    make(chan uint32, MuxWindow),
		done:    make(chan struct{}),
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

// Close implements Stream.
func (s *muxStream) Close() error {
	s.fail(ErrStreamBroken)
	s.wg.Wait()
	return nil
}

// writer drains the queue into the buffered socket writer, flushing once
// per burst: every frame queued while the previous flush was on the wire
// rides the next syscall.
func (s *muxStream) writer() {
	defer s.wg.Done()
	w := bufio.NewWriterSize(s.conn, 64<<10)
	scratch := make([]byte, 0, 64)
	var notify []*flushBarrier
	for {
		var first muxWrite
		select {
		case first = <-s.writeCh:
		case <-s.done:
			return
		}
		err := writeMuxFrame(w, scratch, first.corrID, first.kind, first.errStr, first.payload)
		if first.flushed != nil {
			notify = append(notify, first.flushed)
		}
		// Drain the burst before flushing. When the queue looks empty, yield
		// once and re-check: callers that just woke from the previous flush
		// are usually about to enqueue, and folding their frames into this
		// flush is what turns N round-trip syscalls into one.
		yielded := false
	drain:
		for err == nil {
			select {
			case next := <-s.writeCh:
				err = writeMuxFrame(w, scratch, next.corrID, next.kind, next.errStr, next.payload)
				if next.flushed != nil {
					notify = append(notify, next.flushed)
				}
			default:
				if !yielded && w.Buffered() < 32<<10 {
					yielded = true
					runtime.Gosched()
					continue
				}
				break drain
			}
		}
		if err == nil {
			err = w.Flush()
		}
		for i, fb := range notify {
			fb.signal()
			fb.release()
			notify[i] = nil
		}
		notify = notify[:0]
		if err != nil {
			s.fail(fmt.Errorf("mux write to %v: %w", s.to, err))
			return
		}
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
	r := bufio.NewReaderSize(s.conn, 64<<10)
	var buf []byte
	var dirty uint32 // bitmask of stripes with undelivered wakeups
	for {
		corrID, kind, errStr, payload, err := readMuxFrame(r, &buf)
		if err != nil {
			s.fail(fmt.Errorf("mux read from %v: %w", s.to, err))
			return
		}
		if s.deliver(corrID, kind, errStr, payload) {
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

// deliver writes one response into its slot; it reports whether a caller is
// listening (and therefore whether its stripe needs a wakeup).
func (s *muxStream) deliver(corrID uint64, kind, errStr string, payload []byte) bool {
	sl := &s.slots[corrID&(MuxWindow-1)]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.corr != corrID || sl.done {
		muxDroppedResponses.Add(1)
		return false // late or duplicated response: no caller, drop it
	}
	if errStr != "" {
		sl.err = &RemoteError{Node: s.to, Msg: errStr}
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

// acquire takes a free completion slot (the backpressure point).
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
		return 0, fmt.Errorf("mux call to %v: %w", s.to, ErrCallTimeout)
	case <-s.done:
		return 0, s.brokenErr()
	}
}

// arm stamps a fresh, never-before-used correlation ID onto an acquired
// slot and opens it for delivery.
func (s *muxStream) arm(idx uint32) uint64 {
	sl := &s.slots[idx]
	sl.mu.Lock()
	sl.gen++
	corr := sl.gen<<muxSlotShift | uint64(idx)
	sl.corr = corr
	sl.done = false
	sl.msg = Message{}
	sl.err = nil
	sl.mu.Unlock()
	return corr
}

// disarm closes a slot for delivery without completing it (the frame never
// reached the write queue).
func (s *muxStream) disarm(idx uint32) {
	sl := &s.slots[idx]
	sl.mu.Lock()
	sl.corr = 0
	sl.done = false
	sl.msg, sl.err = Message{}, nil
	sl.mu.Unlock()
}

// release returns a slot to the freelist.
func (s *muxStream) release(idx uint32) {
	muxSlotsInUse.Add(-1)
	s.free <- idx
}

// enqueue hands a frame to the writer.
func (s *muxStream) enqueue(ctx context.Context, wr muxWrite) error {
	select {
	case s.writeCh <- wr:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("mux call to %v: %w", s.to, ErrCallTimeout)
	case <-s.done:
		return s.brokenErr()
	}
}

// awaitSlot parks on the slot's stripe until the reader completes the slot,
// the context expires, or the stream breaks. callErr is a per-call handler
// failure (RemoteError); fatal is a transport-level failure that voids the
// whole flight. Exactly one of the three outcomes is set, and in every case
// the slot has been returned to the freelist when awaitSlot returns.
func (s *muxStream) awaitSlot(ctx context.Context, idx uint32, fb *flushBarrier) (msg Message, callErr, fatal error) {
	sl := &s.slots[idx]
	stripe := &s.stripes[idx%muxNotifyStripes]
	for {
		ch := stripe.get()
		sl.mu.Lock()
		if sl.done {
			msg, callErr = sl.msg, sl.err
			sl.corr, sl.done, sl.msg, sl.err = 0, false, Message{}, nil
			sl.mu.Unlock()
			fb.release()
			s.release(idx)
			return msg, callErr, nil
		}
		sl.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			s.disarm(idx)
			// Callers may recycle the payload once we return, so an
			// abandoned call must wait out the flush first.
			select {
			case <-fb.ch:
			case <-s.done:
			}
			fb.release()
			s.release(idx)
			return Message{}, nil, fmt.Errorf("mux call to %v: %w", s.to, ErrCallTimeout)
		case <-s.done:
			// A completion may have raced the failure; prefer it.
			sl.mu.Lock()
			if sl.done {
				msg, callErr = sl.msg, sl.err
				sl.corr, sl.done, sl.msg, sl.err = 0, false, Message{}, nil
				sl.mu.Unlock()
				fb.release()
				s.release(idx)
				return msg, callErr, nil
			}
			sl.corr = 0
			sl.mu.Unlock()
			fb.release()
			s.release(idx)
			return Message{}, nil, s.brokenErr()
		}
	}
}

// Call implements Stream: it is safe for concurrent use, and concurrent
// calls pipeline on the single connection. The request payload is not
// retained after Call returns.
func (s *muxStream) Call(ctx context.Context, req Message) (Message, error) {
	idx, err := s.acquire(ctx)
	if err != nil {
		return Message{}, err
	}
	corr := s.arm(idx)
	fb := getFlushBarrier()
	if err := s.enqueue(ctx, muxWrite{corrID: corr, kind: req.Kind, payload: req.Payload, flushed: fb}); err != nil {
		s.disarm(idx)
		fb.release()
		fb.release() // the writer never saw it: both references are ours
		s.release(idx)
		return Message{}, err
	}
	msg, callErr, fatal := s.awaitSlot(ctx, idx, fb)
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
	type flight struct {
		idx uint32
		fb  *flushBarrier
	}
	flights := make([]flight, 0, len(reqs))
	abandon := func() {
		for _, fl := range flights {
			s.disarm(fl.idx)
			select {
			case <-fl.fb.ch:
			case <-s.done:
			}
			fl.fb.release()
			s.release(fl.idx)
		}
	}
	for i := range reqs {
		idx, err := s.acquire(ctx)
		if err != nil {
			abandon()
			return nil, nil, err
		}
		corr := s.arm(idx)
		fb := getFlushBarrier()
		if err := s.enqueue(ctx, muxWrite{corrID: corr, kind: reqs[i].Kind, payload: reqs[i].Payload, flushed: fb}); err != nil {
			s.disarm(idx)
			fb.release()
			fb.release()
			s.release(idx)
			abandon()
			return nil, nil, err
		}
		flights = append(flights, flight{idx: idx, fb: fb})
	}
	msgs := make([]Message, len(reqs))
	errs := make([]error, len(reqs))
	for i, fl := range flights {
		msg, callErr, fatal := s.awaitSlot(ctx, fl.idx, fl.fb)
		if fatal != nil {
			flights = flights[i+1:]
			abandon()
			return nil, nil, fatal
		}
		msgs[i], errs[i] = msg, callErr
	}
	return msgs, errs, nil
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
// workers: a job spawns a worker only when none is idle and the pool is
// below its cap, and workers exit after an idle timeout — so a steady
// pipeline reuses the same few goroutines instead of paying a
// goroutine-per-frame spawn, while a deep burst still fans out to
// MuxWindow-way concurrency (parked handlers hold workers, as the
// pipelining tests require).
type muxWorkerPool struct {
	work    chan muxJob
	handle  func(muxJob)
	max     int32
	workers atomic.Int32
	idle    atomic.Int32
	wg      sync.WaitGroup
}

func newMuxWorkerPool(max int, handle func(muxJob)) *muxWorkerPool {
	return &muxWorkerPool{
		work:   make(chan muxJob, MuxWindow),
		handle: handle,
		max:    int32(max),
	}
}

// dispatch queues one job, growing the pool if nobody is idle. The
// spawn-vs-idle-exit race is closed on the worker side: a worker drains the
// queue once more after deciding to exit, so a job enqueued against a
// dying worker is either picked up by it or sees workers below cap on the
// next dispatch.
func (p *muxWorkerPool) dispatch(j muxJob) {
	p.work <- j
	if p.idle.Load() == 0 && p.workers.Load() < p.max {
		p.workers.Add(1)
		p.wg.Add(1)
		go p.worker()
	}
}

func (p *muxWorkerPool) worker() {
	defer p.wg.Done()
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
		select {
		case j, ok := <-p.work:
			p.idle.Add(-1)
			if !ok {
				p.workers.Add(-1)
				return
			}
			p.handle(j)
		case <-timer.C:
			p.idle.Add(-1)
			// Final non-blocking drain before leaving, closing the race with
			// a dispatch that saw this worker as idle.
			select {
			case j, ok := <-p.work:
				if !ok {
					p.workers.Add(-1)
					return
				}
				p.handle(j)
			default:
				p.workers.Add(-1)
				return
			}
		}
	}
}

// close stops the pool after the queue drains and waits for every worker.
func (p *muxWorkerPool) close() {
	close(p.work)
	p.wg.Wait()
}

// serveMux is the server half: conn already consumed the magic; the peer's
// node ID follows, then a stream of request frames. Frames are admitted by
// event weight, dispatched to the bounded worker pool, and responses are
// coalesced by a writer goroutine, so slow handlers never stall the read
// loop and responses flow back in completion order.
//
// Handler contract on this path: every request frame is copied out of the
// read buffer into memory of its own, valid for the handler call *and* any
// response that aliases it — an echo handler returns the request itself, and
// the writer goroutine flushes that response after the handler has returned.
// The copy is therefore never recycled when the handler returns.
func serveMux(conn net.Conn, h Handler, closing <-chan struct{}) {
	var idBuf [8]byte
	if _, err := io.ReadFull(conn, idBuf[:]); err != nil {
		return
	}
	from := NodeID(int64(binary.BigEndian.Uint64(idBuf[:])))

	respCh := make(chan muxWrite, MuxWindow)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w := bufio.NewWriterSize(conn, 64<<10)
		scratch := make([]byte, 0, 64)
		for wr := range respCh {
			err := writeMuxFrame(w, scratch, wr.corrID, wr.kind, wr.errStr, wr.payload)
			// Same burst coalescing as muxStream.writer: yield once before
			// flushing so handlers finishing right now ride this syscall.
			yielded := false
		drain:
			for err == nil {
				select {
				case next, ok := <-respCh:
					if !ok {
						break drain
					}
					err = writeMuxFrame(w, scratch, next.corrID, next.kind, next.errStr, next.payload)
				default:
					if !yielded && w.Buffered() < 32<<10 {
						yielded = true
						runtime.Gosched()
						continue
					}
					break drain
				}
			}
			if err == nil {
				err = w.Flush()
			}
			if err != nil {
				_ = conn.Close() // unblock the read loop; remaining responses are moot
				// Keep draining so pool workers sending responses never block
				// on a dead writer.
				for range respCh {
				}
				return
			}
		}
		_ = w.Flush()
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
		if herr != nil {
			wr.errStr = herr.Error()
			wr.payload = nil
		}
		respCh <- wr
		adm.release(j.weight)
	})

	r := bufio.NewReaderSize(conn, 64<<10)
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
