package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptConn is the socket of a muxOut under test. It records what is
// written, write by write, and runs a hook inside Write and inside
// SetWriteDeadline — the two places a flusher is outside the mutex with a
// buffer in hand — so that a test can put another sender exactly there.
type scriptConn struct {
	net.Conn
	onWrite    func(n int) // inside the n-th Write, before its bytes count as written
	onDeadline func()

	mu     sync.Mutex
	calls  int
	writes [][]byte
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.calls++
	n := c.calls
	c.mu.Unlock()
	if c.onWrite != nil {
		c.onWrite(n)
	}
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return len(p), nil
}

func (c *scriptConn) SetWriteDeadline(time.Time) error {
	if c.onDeadline != nil {
		c.onDeadline()
	}
	return nil
}

// written is the number of completed writes.
func (c *scriptConn) written() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.writes)
}

type wireFrame struct {
	corrID  uint64
	payload []byte
}

// wire parses everything written so far as a sequence of frames: it fails
// the test if the bytes are anything else.
func (c *scriptConn) wire(t *testing.T) []wireFrame {
	t.Helper()
	c.mu.Lock()
	b := bytes.Join(c.writes, nil)
	c.mu.Unlock()
	fr := frameReader{buf: b, w: len(b)}
	var frames []wireFrame
	for fr.r < fr.w {
		f, ok, err := fr.next()
		if !ok {
			t.Fatalf("the wire does not parse after %d frames: %v", len(frames), err)
		}
		frames = append(frames, wireFrame{f.corrID, append([]byte(nil), f.payload...)})
	}
	return frames
}

// scriptedOut is the calling end's write half over a scriptConn.
func scriptedOut(t *testing.T) (*muxOut, *scriptConn) {
	conn := &scriptConn{}
	o := &muxOut{conn: conn, bounded: true}
	o.broke = func(err error) {
		t.Errorf("write failed: %v", err)
		o.shut(err)
	}
	return o, conn
}

func smallFrame(id uint64) *muxWrite {
	return &muxWrite{corrID: id, kind: "q", payload: []byte(fmt.Sprintf("frame-%d", id))}
}

func gatheredFrame(id uint64) *muxWrite {
	return &muxWrite{corrID: id, kind: "q", payload: bytes.Repeat([]byte{byte(id)}, muxDirectPayload)}
}

func expectFrames(t *testing.T, got []wireFrame, want ...*muxWrite) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d frames on the wire, want %d", len(got), len(want))
	}
	for i, wr := range want {
		if got[i].corrID != wr.corrID || !bytes.Equal(got[i].payload, wr.payload) {
			t.Fatalf("frame %d on the wire is call %d with %d payload bytes, want call %d intact", i, got[i].corrID, len(got[i].payload), wr.corrID)
		}
	}
}

// TestGatheredFrameIsNotSplit pins that nothing comes between a gathered
// frame's header, which is queued, and its payload, which is not: a sender
// that queues while the gathering sender is between taking the flush role and
// writing — here, inside its SetWriteDeadline — goes out after the payload.
func TestGatheredFrameIsNotSplit(t *testing.T) {
	o, conn := scriptedOut(t)
	big, small := gatheredFrame(1), smallFrame(2)
	var once sync.Once
	conn.onDeadline = func() {
		once.Do(func() {
			if _, err := o.send(context.Background(), small, false); err != nil {
				t.Errorf("small send: %v", err)
			}
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := o.send(ctx, big, false); err != nil {
		t.Fatalf("gathered send: %v", err)
	}
	o.drains.Wait()
	expectFrames(t, conn.wire(t), big, small)
}

// TestFlusherCaptureIsBounded pins the capture bound: senders that keep the
// buffer non-empty — one more frame arrives inside every write — cost the
// flusher muxCaptureWrites writes past the one that carried its own frame,
// not more; a drain goroutine writes the rest, in order, and ends.
func TestFlusherCaptureIsBounded(t *testing.T) {
	const arrivals = 10
	o, conn := scriptedOut(t)
	want := []*muxWrite{smallFrame(1)}
	for i := 2; i <= 1+arrivals; i++ {
		want = append(want, smallFrame(uint64(i)))
	}
	gate := make(chan struct{})
	conn.onWrite = func(n int) {
		if n == 1+muxCaptureWrites+1 {
			<-gate // the first write that is not the sender's to make
		}
		if n <= arrivals {
			if _, err := o.send(context.Background(), want[n], false); err != nil {
				t.Errorf("send inside write %d: %v", n, err)
			}
		}
	}
	sent := make(chan error, 1)
	go func() {
		_, err := o.send(context.Background(), want[0], false)
		sent <- err
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the sender still holds the flush role after %d writes", conn.written())
	}
	if got := conn.written(); got != 1+muxCaptureWrites {
		t.Fatalf("the sender made %d writes, want its own and %d for others", got, muxCaptureWrites)
	}
	close(gate)
	o.drains.Wait()
	expectFrames(t, conn.wire(t), want...)
	if got := conn.written(); got != 1+arrivals {
		t.Fatalf("%d writes, want %d", got, 1+arrivals)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.flushing || o.written != o.queued {
		t.Fatalf("after the drain: flushing %v, %d of %d frames written", o.flushing, o.written, o.queued)
	}
}

// waitForWaiter returns once a gathered sender is waiting for o's flush role.
func waitForWaiter(t *testing.T, o *muxOut) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		o.mu.Lock()
		waiting := o.waiting
		o.mu.Unlock()
		if waiting > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the gathered sender never waited for the flush role")
		}
	}
}

// TestFlusherStepsAsideForAGatheredSender pins that a flusher whose own
// frame is out leaves what is queued to a gathered sender waiting for the
// role, instead of keeping it busy behind its back.
func TestFlusherStepsAsideForAGatheredSender(t *testing.T) {
	o, conn := scriptedOut(t)
	first, small, big := smallFrame(1), smallFrame(2), gatheredFrame(3)
	gathered := make(chan error, 1)
	conn.onWrite = func(n int) {
		if n != 1 {
			return
		}
		go func() {
			_, err := o.send(context.Background(), big, false)
			gathered <- err
		}()
		waitForWaiter(t, o)
		if _, err := o.send(context.Background(), small, false); err != nil {
			t.Errorf("small send: %v", err)
		}
	}
	if _, err := o.send(context.Background(), first, false); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-gathered; err != nil {
		t.Fatalf("gathered send: %v", err)
	}
	o.drains.Wait()
	expectFrames(t, conn.wire(t), first, small, big)
	// The first frame; the small one with the big one's header; its payload.
	if got := conn.written(); got != 3 {
		t.Fatalf("%d writes, want 3: the flusher did not leave the queue to the gathered sender", got)
	}
}

// goneCtx is a context whose expiry no select sees coming: Done never fires,
// Err reports Canceled once gone is set.
type goneCtx struct {
	context.Context
	gone atomic.Bool
}

func (c *goneCtx) Err() error {
	if c.gone.Load() {
		return context.Canceled
	}
	return nil
}

// TestGatheredSenderThatLeavesStrandsNothing pins the other half of stepping
// aside: when the gathered sender the role was released for has expired by
// the time it wakes, the frames left to it are written by a drain.
func TestGatheredSenderThatLeavesStrandsNothing(t *testing.T) {
	o, conn := scriptedOut(t)
	first, small := smallFrame(1), smallFrame(2)
	ctx := &goneCtx{Context: context.Background()}
	gathered := make(chan error, 1)
	conn.onWrite = func(n int) {
		if n != 1 {
			return
		}
		go func() {
			_, err := o.send(ctx, gatheredFrame(3), false)
			gathered <- err
		}()
		waitForWaiter(t, o)
		ctx.gone.Store(true)
		if _, err := o.send(context.Background(), small, false); err != nil {
			t.Errorf("small send: %v", err)
		}
	}
	if _, err := o.send(context.Background(), first, false); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := <-gathered; !errors.Is(err, context.Canceled) {
		t.Fatalf("gathered send: %v, want context.Canceled", err)
	}
	o.drains.Wait()
	expectFrames(t, conn.wire(t), first, small)
}

// pipeStream is a mux stream over net.Pipe, whose writes block until the
// script reads them: a test decides when bytes move.
func pipeStream(t *testing.T, script func(conn net.Conn, r *peerReader)) *muxStream {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	go func() {
		defer srvConn.Close()
		if _, ok := readMuxPreamble(srvConn); ok {
			script(srvConn, &peerReader{conn: srvConn})
		}
	}()
	s, err := dialMux(cliConn, 99, 1)
	if err != nil {
		t.Fatalf("dialMux: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// lapsingCtx expires the n-th time it is asked whether it is done: it puts a
// deadline's expiry between two frames of one flight.
type lapsingCtx struct {
	context.Context // expired
	left            atomic.Int32
}

func lapsing(n int32) *lapsingCtx {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	cancel()
	c := &lapsingCtx{Context: expired}
	c.left.Store(n)
	return c
}

func (c *lapsingCtx) Done() <-chan struct{} {
	if c.left.Add(-1) > 0 {
		return nil
	}
	return c.Context.Done()
}

func (c *lapsingCtx) Err() error {
	if c.left.Load() > 0 {
		return nil
	}
	return c.Context.Err()
}

func (c *lapsingCtx) Deadline() (time.Time, bool) {
	if c.left.Load() > 0 {
		return time.Time{}, false
	}
	return c.Context.Deadline()
}

// TestFailedFlightLeavesTheLinkAlone pins what a CallBatch that fails while
// sending does with the frames it had corked: they were never flushed, so
// their still being queued says nothing about the connection, and the
// caller's context — which may be why the send failed — is not what bounds
// their write. The stream carries on, and the corked frames are written.
func TestFailedFlightLeavesTheLinkAlone(t *testing.T) {
	echoAfter := func(proceed <-chan struct{}, kinds chan<- string) func(net.Conn, *peerReader) {
		return func(conn net.Conn, r *peerReader) {
			<-proceed
			for {
				f, err := r.frame()
				if err != nil {
					return
				}
				kinds <- f.kind
				wr := muxWrite{corrID: f.corrID, kind: f.kind, payload: f.payload}
				if _, err := conn.Write(append(wr.appendHeader(nil), f.payload...)); err != nil {
					return
				}
			}
		}
	}
	live, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	expectKinds := func(t *testing.T, kinds <-chan string, want ...string) {
		t.Helper()
		for _, w := range want {
			select {
			case got := <-kinds:
				if got != w {
					t.Fatalf("the peer read %q, want %q", got, w)
				}
			case <-live.Done():
				t.Fatalf("the peer never read %q", w)
			}
		}
	}

	// The flush role is another caller's, stuck in a write the peer has not
	// read yet, when the flight's context expires before its second frame.
	t.Run("behind a live flusher", func(t *testing.T) {
		proceed, kinds := make(chan struct{}), make(chan string, 8)
		s := pipeStream(t, echoAfter(proceed, kinds))
		first := make(chan error, 1)
		go func() {
			_, err := s.Call(live, Message{Kind: "a", Payload: []byte("x")})
			first <- err
		}()
		for flushing := false; !flushing; runtime.Gosched() {
			s.out.mu.Lock()
			flushing = s.out.flushing
			s.out.mu.Unlock()
		}
		_, _, err := s.CallBatch(lapsing(2), []Message{{Kind: "b"}, {Kind: "never"}})
		if !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("CallBatch: %v, want ErrCallTimeout", err)
		}
		if s.isBroken() {
			t.Fatalf("a flight that failed before it was flushed broke the stream: %v", s.brokenErr())
		}
		close(proceed)
		if err := <-first; err != nil {
			t.Fatalf("the call that held the flush role: %v", err)
		}
		if _, err := s.Call(live, Message{Kind: "c"}); err != nil {
			t.Fatalf("call after the failed flight: %v", err)
		}
		expectKinds(t, kinds, "a", "b", "c")
	})

	// Nobody holds the role: a drain writes the two frames the flight corked
	// before its context expired, under no deadline of the caller's.
	t.Run("expired context", func(t *testing.T) {
		proceed, kinds := make(chan struct{}), make(chan string, 8)
		close(proceed)
		s := pipeStream(t, echoAfter(proceed, kinds))
		_, _, err := s.CallBatch(lapsing(3), []Message{{Kind: "a"}, {Kind: "b"}, {Kind: "never"}})
		if !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("CallBatch: %v, want ErrCallTimeout", err)
		}
		if _, err := s.Call(live, Message{Kind: "c"}); err != nil {
			t.Fatalf("call after the expired flight: %v", err)
		}
		expectKinds(t, kinds, "a", "b", "c")
	})
}

// TestGatheredAndCopiedFramesShareALink runs callers on several threads over
// one connection, half their payloads gathered and half copied, against an
// echo handler — so both ends mix the two write paths — and checks every
// response byte for byte: a frame that lands inside another one's bytes
// corrupts the stream for everyone.
func TestGatheredAndCopiedFramesShareALink(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cli, _, _ := tcpPair(t, mirrorHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const callers, calls = 8, 150
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				size := 24 + i
				if (c+i)%2 == 0 {
					size += muxDirectPayload
				}
				payload := bytes.Repeat([]byte{byte(c), byte(i)}, size/2)
				resp, err := cli.Call(ctx, 1, Message{Kind: "echo", Payload: payload})
				if err != nil || !bytes.Equal(resp.Payload, payload) {
					t.Errorf("caller %d call %d: %d of %d bytes back, intact %v, err %v", c, i, len(resp.Payload), len(payload), bytes.Equal(resp.Payload, payload), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
