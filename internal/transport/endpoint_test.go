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

	"aeon/internal/alloctest"
)

// countingListener counts the connections a listener accepted: how many
// times peers dialed it.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// countedPair attaches a server (node 1) behind a counting listener and a
// non-serving client (node 2) on one TCP mesh.
func countedPair(t *testing.T, h Handler) (cli Endpoint, ln *countingListener, mesh *TCPMesh) {
	t.Helper()
	mesh = NewTCPMesh()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln = &countingListener{Listener: inner}
	srv, err := mesh.AttachListener(1, h, ln)
	if err != nil {
		t.Fatalf("attach server: %v", err)
	}
	cli, err = mesh.Attach(2, mirrorHandler)
	if err != nil {
		t.Fatalf("attach client: %v", err)
	}
	t.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
	})
	return cli, ln, mesh
}

// TestEndpointCallSharesOneConnection pins the one discipline: whatever an
// endpoint sends a peer — any kind, Call or CallBatch, from any number of
// goroutines, the first of them racing each other to dial — rides one TCP
// connection.
func TestEndpointCallSharesOneConnection(t *testing.T) {
	cli, ln, _ := countedPair(t, mirrorHandler)
	open := ReadMuxStats().StreamsOpen

	kinds := []string{"node.submit", "node.store", "node.ping", "node.transfer"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 0; i < 8; i++ {
				kind := kinds[(g+i)%len(kinds)]
				want := fmt.Sprintf("g%d-i%d", g, i)
				if (g+i)%2 == 0 {
					resp, err := cli.Call(ctx, 1, Message{Kind: kind, Payload: []byte(want)})
					if err != nil || resp.Kind != kind || string(resp.Payload) != want {
						errs <- fmt.Errorf("Call %s: %q %q, %v", want, resp.Kind, resp.Payload, err)
						return
					}
					continue
				}
				reqs := []Message{{Kind: kind, Payload: []byte(want + "a")}, {Kind: kind, Payload: []byte(want + "b")}}
				resps, cerrs, err := cli.CallBatch(ctx, 1, reqs)
				if err != nil || cerrs[0] != nil || cerrs[1] != nil ||
					string(resps[0].Payload) != want+"a" || string(resps[1].Payload) != want+"b" {
					errs <- fmt.Errorf("CallBatch %s: %v, %v, %v", want, resps, cerrs, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := ln.accepted.Load(); got != 1 {
		t.Fatalf("the peer accepted %d connections from one endpoint, want 1", got)
	}
	if got := ReadMuxStats().StreamsOpen - open; got != 1 {
		t.Fatalf("StreamsOpen rose by %d, want 1", got)
	}
}

// TestTimedOutCallLeavesNeighboursAlone pins the replacement rule's other
// half: a deadline that expires while waiting for a handler says nothing
// about the connection. With 32 calls in flight and one handler parked past
// its caller's deadline, that caller alone gets ErrCallTimeout; the other 31
// complete on the same connection, the late reply is dropped when it finally
// arrives, and nothing is redialed.
func TestTimedOutCallLeavesNeighboursAlone(t *testing.T) {
	const flight = 32
	var inside atomic.Int32
	allIn, releaseParked := make(chan struct{}), make(chan struct{})
	cli, ln, _ := countedPair(t, func(ctx context.Context, from NodeID, req Message) (Message, error) {
		if req.Kind == "flight" {
			if inside.Add(1) == flight {
				close(allIn)
			}
			select {
			case <-allIn:
			case <-ctx.Done(): // endpoint shutdown: a failed run must not wedge cleanup
			}
		}
		if string(req.Payload) == "parked" {
			select {
			case <-releaseParked:
			case <-ctx.Done():
			}
		}
		return req, nil
	})
	before := ReadMuxStats()

	var wg sync.WaitGroup
	errs := make([]error, flight)
	for i := 0; i < flight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, timeout := fmt.Sprintf("call-%d", i), 10*time.Second
			if i == 0 {
				payload, timeout = "parked", 200*time.Millisecond
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			resp, err := cli.Call(ctx, 1, Message{Kind: "flight", Payload: []byte(payload)})
			if err == nil && string(resp.Payload) != payload {
				err = fmt.Errorf("got %q, want %q", resp.Payload, payload)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if !errors.Is(errs[0], ErrCallTimeout) {
		t.Fatalf("parked call: got %v, want ErrCallTimeout", errs[0])
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Errorf("neighbour %d of the timed-out call failed: %v", i+1, err)
		}
	}

	close(releaseParked)
	for deadline := time.Now().Add(10 * time.Second); ReadMuxStats().DroppedResponses == before.DroppedResponses; {
		if time.Now().After(deadline) {
			t.Fatal("the late reply was never counted as dropped")
		}
		runtime.Gosched()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if resp, err := cli.Call(ctx, 1, Message{Kind: "after", Payload: []byte("fresh")}); err != nil || string(resp.Payload) != "fresh" {
		t.Fatalf("call after the late reply: %q, %v", resp.Payload, err)
	}
	// Nor does a caller that arrives with its context already done.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := cli.Call(dead, 1, Message{Kind: "after"}); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call under a dead context: got %v, want ErrCallTimeout", err)
	}
	after := ReadMuxStats()
	if d := after.DroppedResponses - before.DroppedResponses; d != 1 {
		t.Errorf("DroppedResponses rose by %d, want 1", d)
	}
	if got := ln.accepted.Load(); got != 1 || after.StreamsOpen != before.StreamsOpen+1 {
		t.Fatalf("the connection was replaced: %d accepted, StreamsOpen %d → %d", got, before.StreamsOpen, after.StreamsOpen)
	}
}

// TestEndpointRedialsAfterPeerRestart pins both ends of a peer going away.
// The closing endpoint stops reading requests but still delivers the
// responses its handlers earn on the way out (a shutdown request's ack is
// one), so a call in flight across the shutdown completes; then the cached
// connection breaks, and the next Call dials the peer's new incarnation with
// no help from the caller.
func TestEndpointRedialsAfterPeerRestart(t *testing.T) {
	entered := make(chan struct{})
	mesh := NewTCPMesh()
	srv, err := mesh.Attach(1, func(ctx context.Context, from NodeID, req Message) (Message, error) {
		if req.Kind == "park" {
			close(entered)
			<-ctx.Done() // until the endpoint shuts down
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := mesh.Attach(2, mirrorHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	open := ReadMuxStats().StreamsOpen
	if _, err := cli.Call(ctx, 1, Message{Kind: "warm"}); err != nil {
		t.Fatalf("call before the restart: %v", err)
	}

	inFlight := make(chan error, 1)
	go func() {
		resp, err := cli.Call(ctx, 1, Message{Kind: "park", Payload: []byte("ack")})
		if err == nil && string(resp.Payload) != "ack" {
			err = fmt.Errorf("got %q", resp.Payload)
		}
		inFlight <- err
	}()
	<-entered
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-inFlight; err != nil {
		t.Fatalf("the response a handler returned as its endpoint closed was cut off: %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ReadMuxStats().StreamsOpen != open; {
		if time.Now().After(deadline) {
			t.Fatal("the connection to a closed peer never broke")
		}
		runtime.Gosched()
	}

	addr, _ := mesh.Addr(1)
	inner, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("port %s re-bind raced: %v", addr, err)
	}
	ln := &countingListener{Listener: inner}
	srv2, err := mesh.AttachListener(1, mirrorHandler, ln)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := cli.Call(ctx, 1, Message{Kind: "again", Payload: []byte("hello")})
	if err != nil || string(resp.Payload) != "hello" {
		t.Fatalf("first call after the restart: %q, %v", resp.Payload, err)
	}
	if got := ln.accepted.Load(); got != 1 {
		t.Fatalf("the restarted peer accepted %d connections, want 1", got)
	}
}

// TestListenerRejectsNonMuxPreamble pins that the mesh has one protocol: a
// connection that opens with anything but the mux preamble — the old gob
// envelope, or noise — is closed and never reaches a handler.
func TestListenerRejectsNonMuxPreamble(t *testing.T) {
	var handled atomic.Int32
	_, _, mesh := countedPair(t, func(ctx context.Context, from NodeID, req Message) (Message, error) {
		handled.Add(1)
		return req, nil
	})
	addr, _ := mesh.Addr(1)
	openings := map[string][]byte{
		// How a gob stream of struct{From int64; Req struct{Kind string; Payload []byte}} begins.
		"gob":    {0x2b, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 'w', 'i', 'r', 'e', 'R'},
		"random": {0x13, 0x9c, 0x00, 0xfe, 0x41, 0x07, 0xd2, 0x6b, 0xa7, 0x4d, 0x58, 0x31},
	}
	for name, opening := range openings {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// The opening, then a well-formed request frame: were the listener to
		// serve the connection anyway, the handler would run.
		frame := muxWrite{corrID: 1<<muxSlotShift | 0, kind: "q"}
		if _, err := conn.Write(frame.appendHeader(opening)); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); n != 0 || isTimeout(err) {
			t.Fatalf("%s opening: the listener kept the connection (read %d bytes, %v)", name, n, err)
		}
		_ = conn.Close()
	}
	if n := handled.Load(); n != 0 {
		t.Fatalf("a handler ran %d times for connections that never sent the preamble", n)
	}
}

// TestMuxCallDeadlineWhenPeerStopsReading pins the deadline on the write
// side: a peer that accepts and then never reads wedges the writer once the
// socket buffers fill, and a caller whose deadline expires with its frame
// still unflushed must get ErrCallTimeout promptly — not wait on a flush that
// cannot happen — without returning while the writer can still read its
// payload (the test recycles it at once, as pooled callers do; run under
// -race). The stalled connection is broken, so the endpoint replaces it with
// no help from the caller.
func TestMuxCallDeadlineWhenPeerStopsReading(t *testing.T) {
	deaf, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer deaf.Close()
	var held []net.Conn
	var heldMu sync.Mutex
	go func() {
		for {
			conn, err := deaf.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, conn) // accepted, never read
			heldMu.Unlock()
		}
	}()
	defer func() {
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, conn := range held {
			_ = conn.Close()
		}
	}()

	cli, _, mesh := countedPair(t, mirrorHandler)
	healthy, _ := mesh.Addr(1)
	mesh.Register(1, deaf.Addr().String())

	stalled := func(name string, call func(ctx context.Context, req Message) (Message, error)) {
		t.Helper()
		payload := bytes.Repeat([]byte{0xAB}, 16<<20) // far beyond the socket buffers
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := call(ctx, Message{Kind: "node.transfer", Payload: payload})
		if !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("%s to a peer that stopped reading: got %v, want ErrCallTimeout", name, err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("%s returned %v after a 200ms deadline", name, elapsed)
		}
		clear(payload) // the caller owns its payload again
	}

	st, ok, err := OpenStream(cli, 1)
	if !ok || err != nil {
		t.Fatalf("OpenStream: ok=%v err=%v", ok, err)
	}
	defer st.Close()
	stalled("Stream.Call", st.Call)
	if _, err := st.Call(context.Background(), Message{Kind: "q"}); err == nil {
		t.Fatal("a stalled private stream was not broken")
	}

	stalled("Endpoint.Call", func(ctx context.Context, req Message) (Message, error) { return cli.Call(ctx, 1, req) })
	mesh.Register(1, healthy)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, 1, Message{Kind: "q", Payload: []byte("hello")})
	if err != nil || string(resp.Payload) != "hello" {
		t.Fatalf("call to the healthy peer after the stall: %q, %v", resp.Payload, err)
	}
}

// TestWorkerPoolNeverStrandsAJob pins the pool's accounting: a job is handed
// to a waiting worker or gets a new one, even when two jobs arrive before the
// one idle worker has woken — counting that worker for both stranded the
// second job for as long as the first one's handler stayed parked.
func TestWorkerPoolNeverStrandsAJob(t *testing.T) {
	var inside atomic.Int32
	warm, both := make(chan struct{}), make(chan struct{})
	pool := newMuxWorkerPool(MuxWindow, func(j muxJob) {
		if j.corrID == 0 {
			close(warm)
			return
		}
		if inside.Add(1) == 2 {
			close(both)
		}
		<-both // each job needs the other one running
	})
	pool.dispatch(muxJob{corrID: 0})
	<-warm
	for pool.idle.Load() != 1 { // the warm-up's worker is waiting again
		runtime.Gosched()
	}
	pool.dispatch(muxJob{corrID: 1})
	pool.dispatch(muxJob{corrID: 2})
	select {
	case <-both:
	case <-time.After(10 * time.Second):
		t.Fatal("two jobs dispatched back to back never ran together: one is stranded in the queue")
	}
	pool.close()
}

// TestWorkerPoolReapRetiresWhatAPeriodDidNotNeed pins the reaper's rule: a
// reap retires as many workers as sat idle through the whole period since the
// last one — not the workers a burst inside the period used — and a reap that
// races dispatches and close neither strands a job nor outlives the pool.
func TestWorkerPoolReapRetiresWhatAPeriodDidNotNeed(t *testing.T) {
	const burst = 8
	var handled atomic.Int32
	release := make(chan struct{})
	pool := newMuxWorkerPool(MuxWindow, func(j muxJob) {
		handled.Add(1)
		if j.corrID == 0 {
			<-release // hold a worker each, so the burst grows the pool
		}
	})
	settle := func(idle, workers int32) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); pool.idle.Load() != idle || pool.workers.Load() != workers; {
			if time.Now().After(deadline) {
				t.Fatalf("pool has %d workers, %d idle; want %d, %d", pool.workers.Load(), pool.idle.Load(), workers, idle)
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < burst; i++ {
		pool.dispatch(muxJob{})
	}
	close(release)
	settle(burst, burst)
	pool.reap() // the period that saw the burst: every worker was needed
	settle(burst, burst)
	pool.dispatch(muxJob{corrID: 1})
	settle(burst, burst)
	pool.reap() // a period with one job at a time: one worker was enough
	settle(1, 1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			pool.reap()
		}
	}()
	for i := 0; i < 1000; i++ {
		pool.dispatch(muxJob{corrID: 1})
	}
	pool.close()
	wg.Wait()
	if got := handled.Load(); got != burst+1+1000 {
		t.Fatalf("%d jobs handled, want %d", got, burst+1+1000)
	}
}

// TestMuxStreamFootprint is the budget on what a connection costs before it
// carries traffic: every directed pair of a fleet holds one — store links
// that see a frame a second included — so the fixed cost, both ends, is what
// a fleet's resident memory is made of. (559 KiB per stream when the queues
// were window-deep, the writers held 64 KiB buffers and the slot table was
// allocated whole.)
func TestMuxStreamFootprint(t *testing.T) {
	const streams, budget = 32, 256 << 10
	cli, _, _ := tcpPair(t, mirrorHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	open := make([]Stream, streams)
	for i := range open {
		st, _, err := OpenStream(cli, 1)
		if err != nil {
			t.Fatalf("OpenStream %d: %v", i, err)
		}
		defer st.Close()
		if _, err := st.Call(ctx, Message{Kind: "q", Payload: []byte("hello")}); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		open[i] = st
	}
	perStream := (heap() - before) / streams
	t.Logf("%d KiB of heap per open stream, both ends", perStream>>10)
	if perStream > budget {
		t.Fatalf("an open stream holds %d KiB of heap, budget %d KiB", perStream>>10, budget>>10)
	}
	runtime.KeepAlive(open)
}

// deafPeer listens, accepts and never reads: what a wedged process looks
// like from the calling end.
func deafPeer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn) // accepted, never read
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			_ = conn.Close()
		}
	})
	return ln
}

// TestSmallFramesDeadlineWhenPeerStopsReading pins the deadline on a sender's
// own write. Frames below muxDirectPayload are copied into the pending
// buffer and written by whichever sender holds the flush role; when the peer
// stops reading, that sender blocks in Write once the socket buffers fill,
// and no other goroutine is watching its deadline for it. Its own context
// must bound its own write — by deadline, or for a context that can only be
// cancelled, by the watchdog — the stalled stream must break, and the
// endpoint must replace it with no help from the caller.
func TestSmallFramesDeadlineWhenPeerStopsReading(t *testing.T) {
	// 1000 frames of 8 KiB are far more than a loopback socket pair buffers,
	// and still fit the window, so no caller waits for a slot.
	const frames, size = 1000, 8 << 10
	payload := bytes.Repeat([]byte{0xCD}, size)

	check := func(t *testing.T, blockedOnOwnFrame bool, stall func(cli Endpoint) []error) {
		deaf := deafPeer(t)
		cli, _, mesh := countedPair(t, mirrorHandler)
		healthy, _ := mesh.Addr(1)
		mesh.Register(1, deaf.Addr().String())
		dialCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		stream, err := cli.(*tcpEndpoint).link(dialCtx, 1)
		if err != nil {
			t.Fatal(err)
		}

		start := time.Now()
		errs := stall(cli)
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("calls to a peer that stopped reading returned after %v", elapsed)
		}
		timedOut := 0
		for i, err := range errs {
			switch {
			case errors.Is(err, ErrCallTimeout):
				timedOut++
			case !errors.Is(err, ErrStreamBroken):
				t.Fatalf("call %d: got %v, want ErrCallTimeout or ErrStreamBroken", i, err)
			}
		}
		if blockedOnOwnFrame && timedOut == 0 {
			t.Fatal("the sender whose deadline cut its own frame's write short did not get ErrCallTimeout")
		}
		if !stream.isBroken() {
			t.Fatal("the stalled stream was not broken")
		}
		stream.out.drains.Wait()
		buf := make([]byte, 1<<20)
		if stacks := buf[:runtime.Stack(buf, true)]; bytes.Contains(stacks, []byte("(*muxOut).flush")) {
			t.Fatalf("a goroutine is still flushing the broken stream:\n%s", stacks)
		}

		mesh.Register(1, healthy)
		resp, err := cli.Call(dialCtx, 1, Message{Kind: "q", Payload: []byte("hello")})
		if err != nil || string(resp.Payload) != "hello" {
			t.Fatalf("call to the healthy peer after the stall: %q, %v", resp.Payload, err)
		}
	}

	// Whichever caller holds the flush role when the buffers fill is stuck in
	// Write — on its own frame, or on its neighbours' with its own long out, in
	// which case the break its deadline causes is all anyone sees.
	t.Run("calls deadline", func(t *testing.T) {
		check(t, false, func(cli Endpoint) []error {
			errs := make([]error, frames)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
					defer cancel()
					_, errs[i] = cli.Call(ctx, 1, Message{Kind: "node.submit", Payload: payload})
				}(i)
			}
			wg.Wait()
			return errs
		})
	})
	// One flight: its caller is the stream's only sender, so it is the one
	// stuck in Write, and nobody else's expiry breaks the stream for it. Under
	// a context that can only be cancelled there is no deadline to put on the
	// socket either.
	flight := func(ctx context.Context) func(Endpoint) []error {
		return func(cli Endpoint) []error {
			reqs := make([]Message, frames)
			for i := range reqs {
				reqs[i] = Message{Kind: "node.submit", Payload: payload}
			}
			_, _, fatal := cli.CallBatch(ctx, 1, reqs)
			return []error{fatal}
		}
	}
	t.Run("flight deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		check(t, true, flight(ctx))
	})
	t.Run("flight cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer time.AfterFunc(200*time.Millisecond, cancel).Stop()
		check(t, true, flight(ctx))
	})
}

// TestMuxCallAllocBudget is the transport's allocation gate for one small
// round trip over loopback, both ends counted: nothing at all. The request
// copy the handler owns and the response copy the caller owns come from the
// frame-buffer pool — the worker returns the first once the response is
// sent, and the call releases the second, as every caller that has decoded
// its response does — and the carriage allocates no context, timer, channel,
// kind string or length prefix. (12 at the parent commit under
// context.WithTimeout, 7 under context.Background, 2 with unpooled copies.)
func TestMuxCallAllocBudget(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped deadline is rebuilt from scratch")
	}
	const budget = 0
	cli, _, _ := tcpPair(t, mirrorHandler)
	req := Message{Kind: "node.submit", Payload: bytes.Repeat([]byte{1}, 64)}
	call := func() {
		ctx := NewDeadline(10 * time.Second)
		defer ctx.Release()
		resp, err := cli.Call(ctx, 1, req)
		if err != nil || len(resp.Payload) != len(req.Payload) {
			t.Fatalf("call: %d bytes, %v", len(resp.Payload), err)
		}
		resp.Release()
	}
	for i := 0; i < 100; i++ {
		call() // dial, grow the pending buffers, start the worker
	}
	if got := testing.AllocsPerRun(2000, call); got > budget {
		t.Fatalf("one round trip allocates %.2f objects, budget %d", got, budget)
	}
}

// TestCloseNeverWaitsOnTheReadLoop pins that nothing a served connection's
// read loop can wait on closes its socket synchronously: the loop reads
// inside RawConn.Read, and conn.Close waits for such a reader to return. A
// peer floods the connection past muxServerAdmission and never reads; every
// response is a gathered write larger than the socket buffers, so the first
// worker is stuck writing, every other one waits for the flush role and the
// read loop waits in dispatch for a worker. Close's drain deadline fails the
// stuck write, and the failure must wake the loop without waiting for it: a
// synchronous conn.Close there hangs Close for good.
func TestCloseNeverWaitsOnTheReadLoop(t *testing.T) {
	big := make([]byte, 16<<20)
	var entered atomic.Int32
	mesh := NewTCPMesh()
	ep, err := mesh.Attach(1, func(ctx context.Context, from NodeID, req Message) (Message, error) {
		entered.Add(1)
		return Message{Kind: "big", Payload: big}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := ep.(*tcpEndpoint)
	addr, _ := mesh.Addr(1)
	peer, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	flood := append(muxMagic[:4:4], make([]byte, 8)...)
	for id := uint64(1); id <= muxServerAdmission+1; id++ {
		wr := muxWrite{corrID: id, kind: "q"}
		flood = wr.appendHeader(flood)
	}
	go func() { _, _ = peer.Write(flood) }()

	// The pool of this test's own connection: another accepted connection
	// (a stray dial from elsewhere) is served too, and any served
	// connection's pool is nil until its preamble has arrived.
	var pool *muxWorkerPool
	for deadline := time.Now().Add(30 * time.Second); ; runtime.Gosched() {
		srv.mu.Lock()
		for conn, p := range srv.served {
			if conn.RemoteAddr().String() == peer.LocalAddr().String() {
				pool = p
			}
		}
		srv.mu.Unlock()
		// Every worker holds a job it cannot finish, and the loop has taken
		// one off idle for a job that no worker will receive: it is in
		// dispatch, past its last look at closing, for good.
		if pool != nil && entered.Load() == MuxWindow && pool.idle.Load() == -(muxQueueDepth+1) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the flood never took every worker")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- ep.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(closeDrain + time.Second):
		t.Fatalf("Close did not return within %v: a write failure waited on the read loop", closeDrain+time.Second)
	}
	if n := pool.workers.Load(); n != 0 {
		t.Fatalf("%d workers outlived Close", n)
	}
}
