package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/schema"
)

// mirrorHandler answers every request with its own payload, tagging the kind,
// so a mismatched correlation would be visible as a wrong payload.
func mirrorHandler(ctx context.Context, from NodeID, req Message) (Message, error) {
	return Message{Kind: req.Kind, Payload: req.Payload}, nil
}

func tcpPair(t *testing.T, h Handler) (client Endpoint, server Endpoint, mesh *TCPMesh) {
	t.Helper()
	mesh = NewTCPMesh()
	srv, err := mesh.Attach(1, h)
	if err != nil {
		t.Fatalf("attach server: %v", err)
	}
	cli, err := mesh.Attach(2, func(ctx context.Context, from NodeID, req Message) (Message, error) {
		return Message{}, errors.New("client does not serve")
	})
	if err != nil {
		t.Fatalf("attach client: %v", err)
	}
	t.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
	})
	return cli, srv, mesh
}

// TestMuxStreamRoundTrip pins the basic pipelined exchange on real TCP:
// requests submitted concurrently on one stream all come back with their
// own payloads.
func TestMuxStreamRoundTrip(t *testing.T) {
	cli, _, _ := tcpPair(t, mirrorHandler)
	st, ok, err := OpenStream(cli, 1)
	if !ok || err != nil {
		t.Fatalf("OpenStream: ok=%v err=%v", ok, err)
	}
	defer st.Close()

	const calls = 200
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("payload-%d", i))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			resp, err := st.Call(ctx, Message{Kind: "echo", Payload: want})
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Payload) != string(want) {
				errs <- fmt.Errorf("call %d: got %q want %q (correlation mismatch)", i, resp.Payload, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxEchoResponseOwnsItsBytes guards the server's per-frame request
// copy: an echo handler returns the request payload itself, so the response
// aliases the request's memory until the writer goroutine has flushed it —
// after the handler returned. With 64 frames in flight, each larger than its
// share of the read buffer, the read loop keeps decoding new frames while
// earlier responses are still queued; were a request's memory recycled at
// handler return, a later frame would overwrite a queued response.
func TestMuxEchoResponseOwnsItsBytes(t *testing.T) {
	cli, _, _ := tcpPair(t, func(ctx context.Context, from NodeID, req Message) (Message, error) {
		return req, nil
	})
	st, _, err := OpenStream(cli, 1)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()

	const inFlight, rounds, size = 64, 8, 8 << 10
	msgs := make([]Message, inFlight)
	for r := 0; r < rounds; r++ {
		for i := range msgs {
			p := make([]byte, size)
			for k := range p {
				p[k] = byte(r*inFlight + i + k)
			}
			msgs[i] = Message{Kind: "echo", Payload: p}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		resps, errs, fatal := StreamCallBatch(ctx, st, msgs)
		cancel()
		if fatal != nil {
			t.Fatalf("round %d: %v", r, fatal)
		}
		for i := range msgs {
			if errs[i] != nil {
				t.Fatalf("round %d frame %d: %v", r, i, errs[i])
			}
			if !bytes.Equal(resps[i].Payload, msgs[i].Payload) {
				t.Fatalf("round %d frame %d: the echoed payload changed after the handler returned", r, i)
			}
		}
	}
}

// TestMuxStreamPipelines proves many requests genuinely overlap on one
// connection: with a handler that parks until N requests are concurrently
// inside it, N pipelined calls on a single stream all complete — impossible
// on the one-outstanding-call-per-connection path.
func TestMuxStreamPipelines(t *testing.T) {
	const depth = 16
	var inside atomic.Int32
	release := make(chan struct{})
	h := func(ctx context.Context, from NodeID, req Message) (Message, error) {
		if inside.Add(1) == depth {
			close(release)
		}
		<-release
		return Message{Kind: req.Kind, Payload: req.Payload}, nil
	}
	cli, _, _ := tcpPair(t, h)
	st, _, err := OpenStream(cli, 1)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	errs := make(chan error, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := st.Call(ctx, Message{Kind: "park", Payload: []byte{byte(i)}}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("pipelined call failed — requests did not overlap: %v", err)
	}
}

// TestMuxLateResponseNeverMatchesNewerRequest pins the correlation-ID
// contract: a response that arrives after its caller timed out must be
// discarded, never delivered to a later request. The handler parks the
// first request until after a second request has completed.
func TestMuxLateResponseNeverMatchesNewerRequest(t *testing.T) {
	firstParked := make(chan struct{})
	releaseFirst := make(chan struct{})
	freshSeen := make(chan struct{})
	var seen atomic.Int32
	h := func(ctx context.Context, from NodeID, req Message) (Message, error) {
		switch seen.Add(1) {
		case 1:
			close(firstParked)
			<-releaseFirst // answer late, long after the caller gave up
		case 2:
			close(freshSeen)
		}
		return Message{Kind: req.Kind, Payload: req.Payload}, nil
	}
	cli, _, _ := tcpPair(t, h)
	st, _, err := OpenStream(cli, 1)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := st.Call(ctx, Message{Kind: "late", Payload: []byte("stale")}); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("parked call: got %v, want ErrCallTimeout", err)
	}
	<-firstParked

	// The stale response is still pending server-side. Issue a fresh call
	// and release the stale one once the handler has seen the fresh one.
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-freshSeen
		close(releaseFirst)
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	resp, err := st.Call(ctx2, Message{Kind: "fresh", Payload: []byte("fresh")})
	if err != nil {
		t.Fatalf("fresh call: %v", err)
	}
	if string(resp.Payload) != "fresh" {
		t.Fatalf("fresh call got stale response %q — late response matched a newer request", resp.Payload)
	}
	<-done
}

// fakeMuxServer speaks the raw mux wire protocol so tests can inject
// protocol-level misbehavior (duplicated responses, unknown correlation
// IDs, reordering) that a well-behaved server never produces.
func fakeMuxServer(t *testing.T, script func(conn net.Conn, r *peerReader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, ok := readMuxPreamble(conn); ok {
			script(conn, &peerReader{conn: conn})
		}
	}()
	return ln.Addr().String()
}

// peerReader is a scripted peer's read side: plain Reads parsed by the
// parser the mux read loops use, one frame at a time as the script asks.
type peerReader struct {
	conn net.Conn
	fr   frameReader
}

// frame returns the next frame, its payload copied out of the buffer.
func (p *peerReader) frame() (muxFrame, error) {
	for {
		f, ok, err := p.fr.next()
		if ok {
			f.payload = append([]byte(nil), f.payload...)
			return f, nil
		}
		if err != nil {
			return f, err
		}
		n, err := p.conn.Read(p.fr.space())
		p.fr.w += n
		if n == 0 && err != nil {
			return f, err
		}
	}
}

func readReqFrame(t *testing.T, r *peerReader) (corrID uint64, payload []byte) {
	t.Helper()
	f, err := r.frame()
	if err != nil {
		t.Errorf("fake server read: %v", err)
		return 0, nil
	}
	return f.corrID, f.payload
}

func writeRespFrame(t *testing.T, conn net.Conn, corrID uint64, payload []byte) {
	t.Helper()
	wr := muxWrite{corrID: corrID, kind: "resp", payload: payload}
	if _, err := conn.Write(append(wr.appendHeader(nil), payload...)); err != nil {
		t.Errorf("fake server write: %v", err)
	}
}

func dialFake(t *testing.T, addr string) *muxStream {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial fake: %v", err)
	}
	s, err := dialMux(conn, 99, 1)
	if err != nil {
		t.Fatalf("dialMux: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestMuxReorderedResponses pins out-of-order completion: responses sent in
// reverse order still reach their own callers.
func TestMuxReorderedResponses(t *testing.T) {
	received := make(chan struct{}, 2)
	addr := fakeMuxServer(t, func(conn net.Conn, r *peerReader) {
		id1, p1 := readReqFrame(t, r)
		received <- struct{}{}
		id2, p2 := readReqFrame(t, r)
		received <- struct{}{}
		// Answer in reverse arrival order.
		writeRespFrame(t, conn, id2, p2)
		writeRespFrame(t, conn, id1, p1)
	})
	s := dialFake(t, addr)

	var wg sync.WaitGroup
	results := make([]string, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			resp, err := s.Call(ctx, Message{Kind: "q", Payload: []byte("req-" + strconv.Itoa(i))})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			results[i] = string(resp.Payload)
		}(i)
		<-received // call i+1 leaves after the server has read call i
	}
	wg.Wait()
	for i, got := range results {
		if want := "req-" + strconv.Itoa(i); got != want {
			t.Errorf("caller %d got %q, want %q — reordered response mis-matched", i, got, want)
		}
	}
}

// TestMuxDuplicatedAndUnknownResponses pins discard behavior: a duplicated
// response (same correlation ID twice) and a response with a never-issued
// ID are both dropped, and the stream keeps serving.
func TestMuxDuplicatedAndUnknownResponses(t *testing.T) {
	dropsBefore := ReadMuxStats().DroppedResponses
	addr := fakeMuxServer(t, func(conn net.Conn, r *peerReader) {
		id1, p1 := readReqFrame(t, r)
		writeRespFrame(t, conn, 0xDEAD, []byte("never-issued")) // unknown ID first
		writeRespFrame(t, conn, id1, p1)
		writeRespFrame(t, conn, id1, []byte("duplicate")) // retired ID again
		id2, p2 := readReqFrame(t, r)
		writeRespFrame(t, conn, id2, p2)
	})
	s := dialFake(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := s.Call(ctx, Message{Kind: "q", Payload: []byte("one")})
	if err != nil || string(resp.Payload) != "one" {
		t.Fatalf("first call: %q, %v", resp.Payload, err)
	}
	// The duplicate and the unknown-ID frame must not poison the stream or
	// leak into this fresh call.
	resp, err = s.Call(ctx, Message{Kind: "q", Payload: []byte("two")})
	if err != nil || string(resp.Payload) != "two" {
		t.Fatalf("second call after duplicate response: %q, %v", resp.Payload, err)
	}
	// Both discarded frames — the never-issued ID and the retired duplicate —
	// must show up in the ops-plane drop counter. (Package-level stats, so
	// assert the delta, not the absolute value.)
	if d := ReadMuxStats().DroppedResponses - dropsBefore; d < 2 {
		t.Fatalf("dropped-response counter rose by %d; want >= 2", d)
	}
}

// TestFaultyStreamFaults pins fault injection on both call forms of the one
// discipline: drop (request lost), duplicate (handler runs twice), and lost
// ack (handler runs, caller sees ErrDropped) hit individual requests, whether
// they were issued through Call or as part of a CallBatch flight.
func TestFaultyStreamFaults(t *testing.T) {
	var handled atomic.Int32
	inner := NewInMemMesh(NewSim(SimConfig{}))
	fm := NewFaultyMesh(inner)
	srv, err := fm.Attach(1, func(ctx context.Context, from NodeID, req Message) (Message, error) {
		handled.Add(1)
		return Message{Kind: req.Kind, Payload: req.Payload}, nil
	})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer srv.Close()
	cli, err := fm.Attach(2, mirrorHandler)
	if err != nil {
		t.Fatalf("attach client: %v", err)
	}
	defer cli.Close()
	ctx := context.Background()

	calls := map[string]func(Message) error{
		"Call": func(req Message) error {
			_, err := cli.Call(ctx, 1, req)
			return err
		},
		"CallBatch": func(req Message) error {
			_, errs, fatal := cli.CallBatch(ctx, 1, []Message{req})
			if fatal != nil {
				t.Fatalf("a per-request fault voided the flight: %v", fatal)
			}
			return errs[0]
		},
	}
	for name, call := range calls {
		handled.Store(0)
		fm.Drop(2, 1)
		if err := call(Message{Kind: "q"}); !errors.Is(err, ErrDropped) {
			t.Fatalf("%s: dropped request: got %v", name, err)
		}
		if handled.Load() != 0 {
			t.Fatalf("%s: dropped request reached the handler", name)
		}
		fm.Heal(2, 1)

		fm.Duplicate(2, 1, 1)
		if err := call(Message{Kind: "q"}); err != nil {
			t.Fatalf("%s: duplicated request: %v", name, err)
		}
		if got := handled.Load(); got != 2 {
			t.Fatalf("%s: duplicated request ran handler %d times, want 2", name, got)
		}

		fm.DropReply(2, 1, 1)
		if err := call(Message{Kind: "q"}); !errors.Is(err, ErrDropped) {
			t.Fatalf("%s: lost-ack request: got %v", name, err)
		}
		if got := handled.Load(); got != 3 {
			t.Fatalf("%s: lost-ack request ran handler %d times, want 3", name, got)
		}
	}

	// One faulted request in a flight leaves its batchmates alone.
	handled.Store(0)
	fm.DropReply(2, 1, 1)
	_, errs, fatal := cli.CallBatch(ctx, 1, make([]Message, 4))
	if fatal != nil {
		t.Fatalf("flight with one lost ack: %v", fatal)
	}
	lost := 0
	for _, err := range errs {
		if errors.Is(err, ErrDropped) {
			lost++
		} else if err != nil {
			t.Fatalf("batchmate of a lost ack failed: %v", err)
		}
	}
	if lost != 1 || handled.Load() != 4 {
		t.Fatalf("flight of 4 with one lost ack: %d lost, handler ran %d times", lost, handled.Load())
	}
}

// TestMuxStreamBrokenConn pins failure propagation: when the connection
// dies mid-flight, pending and future calls fail fast instead of hanging.
func TestMuxStreamBrokenConn(t *testing.T) {
	addr := fakeMuxServer(t, func(conn net.Conn, r *peerReader) {
		readReqFrame(t, r) // accept the request, then die without answering
		_ = conn.Close()
	})
	s := dialFake(t, addr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Call(ctx, Message{Kind: "q"}); err == nil {
		t.Fatalf("pending call survived a dead connection")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if _, err := s.Call(ctx2, Message{Kind: "q"}); !errors.Is(err, ErrStreamBroken) && err == nil {
		t.Fatalf("call on broken stream succeeded")
	}
}

// TestMuxServerShutdownCancelsHandlers pins graceful shutdown: closing the
// serving endpoint cancels the context handed to in-flight mux handlers, so
// long-running handlers can observe shutdown and Close does not wedge.
func TestMuxServerShutdownCancelsHandlers(t *testing.T) {
	entered := make(chan struct{})
	h := func(ctx context.Context, from NodeID, req Message) (Message, error) {
		close(entered)
		<-ctx.Done() // park until shutdown cancels us
		return Message{}, ctx.Err()
	}
	cli, srv, _ := tcpPair(t, h)
	st, _, err := OpenStream(cli, 1)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()

	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, _ = st.Call(ctx, Message{Kind: "park"})
	}()
	<-entered

	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatalf("endpoint Close wedged behind an in-flight mux handler")
	}
}

// TestMuxConcurrentClientsStress is the -race stress for correlation-ID
// multiplexing: N clients × M concurrent pipelined calls each over TCP,
// every response checked against its request.
func TestMuxConcurrentClientsStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	mesh := NewTCPMesh()
	srv, err := mesh.Attach(1, mirrorHandler)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer srv.Close()

	const clients = 4
	const workers = 8
	const callsPerWorker = 100
	var wg sync.WaitGroup
	errs := make(chan error, clients*workers)
	for c := 0; c < clients; c++ {
		ep, err := mesh.Attach(NodeID(10+c), mirrorHandler)
		if err != nil {
			t.Fatalf("attach client %d: %v", c, err)
		}
		defer ep.Close()
		st, _, err := OpenStream(ep, 1)
		if err != nil {
			t.Fatalf("stream client %d: %v", c, err)
		}
		defer st.Close()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(c, w int) {
				defer wg.Done()
				for i := 0; i < callsPerWorker; i++ {
					want := fmt.Sprintf("c%d-w%d-i%d", c, w, i)
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					resp, err := st.Call(ctx, Message{Kind: "echo", Payload: []byte(want)})
					cancel()
					if err != nil {
						errs <- fmt.Errorf("client %d worker %d call %d: %w", c, w, i, err)
						return
					}
					if string(resp.Payload) != want {
						errs <- fmt.Errorf("client %d worker %d call %d: got %q want %q (cross-matched)", c, w, i, resp.Payload, want)
						return
					}
				}
			}(c, w)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxCallBatchRoundTrip pins the batched flight: K requests issued as
// one CallBatch come back index-aligned through the shared completion plane,
// even when the server answers them out of order.
func TestMuxCallBatchRoundTrip(t *testing.T) {
	addr := fakeMuxServer(t, func(conn net.Conn, r *peerReader) {
		const k = 8
		ids := make([]uint64, k)
		payloads := make([][]byte, k)
		for i := 0; i < k; i++ {
			ids[i], payloads[i] = readReqFrame(t, r)
		}
		for i := k - 1; i >= 0; i-- { // reverse order
			writeRespFrame(t, conn, ids[i], payloads[i])
		}
	})
	s := dialFake(t, addr)

	reqs := make([]Message, 8)
	for i := range reqs {
		reqs[i] = Message{Kind: "q", Payload: []byte("batch-" + strconv.Itoa(i))}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	msgs, errs, err := s.CallBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	for i := range reqs {
		if errs[i] != nil {
			t.Errorf("call %d: %v", i, errs[i])
			continue
		}
		if want := "batch-" + strconv.Itoa(i); string(msgs[i].Payload) != want {
			t.Errorf("call %d: got %q want %q — batch responses mis-aligned", i, msgs[i].Payload, want)
		}
	}
}

// TestMuxCallBatchPerCallErrors pins partial failure inside one flight: a
// handler error on one request lands in its own error slot as a RemoteError
// and its batchmates complete normally.
func TestMuxCallBatchPerCallErrors(t *testing.T) {
	h := func(ctx context.Context, from NodeID, req Message) (Message, error) {
		if string(req.Payload) == "poison" {
			return Message{}, errors.New("handler rejected this one")
		}
		return Message{Kind: req.Kind, Payload: req.Payload}, nil
	}
	cli, _, _ := tcpPair(t, h)
	st, _, err := OpenStream(cli, 1)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()
	bc, ok := st.(BatchCaller)
	if !ok {
		t.Fatalf("mux stream does not implement BatchCaller")
	}

	reqs := []Message{
		{Kind: "q", Payload: []byte("ok-0")},
		{Kind: "q", Payload: []byte("poison")},
		{Kind: "q", Payload: []byte("ok-2")},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	msgs, errs, err := bc.CallBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	var re *RemoteError
	if !errors.As(errs[1], &re) {
		t.Fatalf("poisoned call error: got %v, want RemoteError", errs[1])
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("sibling calls poisoned: %v, %v", errs[0], errs[2])
	}
	if string(msgs[0].Payload) != "ok-0" || string(msgs[2].Payload) != "ok-2" {
		t.Fatalf("sibling payloads wrong: %q, %q", msgs[0].Payload, msgs[2].Payload)
	}
}

// TestMuxSlotReuseAcrossWindow pins the completion plane's slot recycling:
// far more sequential calls than MuxWindow slots complete correctly (every
// slot is re-armed with a fresh, never-reused correlation ID each time).
func TestMuxSlotReuseAcrossWindow(t *testing.T) {
	cli, _, _ := tcpPair(t, mirrorHandler)
	st, _, err := OpenStream(cli, 1)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const calls = 3 * MuxWindow
	const depth = 64
	var wg sync.WaitGroup
	errCh := make(chan error, depth)
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls/depth; i++ {
				want := fmt.Sprintf("w%d-i%d", w, i)
				resp, err := st.Call(ctx, Message{Kind: "echo", Payload: []byte(want)})
				if err != nil {
					errCh <- err
					return
				}
				if string(resp.Payload) != want {
					errCh <- fmt.Errorf("slot cross-talk: got %q want %q", resp.Payload, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestMuxCallBatchAbandonReleasesAllSlots pins window accounting under
// partial failure: a batch abandoned by context expiry returns every one of
// its N slots to the freelist — no leak, no double release.
func TestMuxCallBatchAbandonReleasesAllSlots(t *testing.T) {
	addr := fakeMuxServer(t, func(conn net.Conn, r *peerReader) {
		for { // swallow requests, never answer
			if _, err := r.frame(); err != nil {
				return
			}
		}
	})
	s := dialFake(t, addr)

	reqs := make([]Message, 16)
	for i := range reqs {
		reqs[i] = Message{Kind: "q", Payload: []byte{byte(i)}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := s.CallBatch(ctx, reqs); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("abandoned batch: got %v, want ErrCallTimeout", err)
	}
	if got := len(s.free); got != MuxWindow {
		t.Fatalf("freelist has %d slots after abandoned batch, want %d", got, MuxWindow)
	}
}

// parkSpy is a weightedSem's cond locker in a test. Only cond.Wait unlocks
// through it, once the waiter is on the cond's list, so its Unlock says a
// waiter is parked.
type parkSpy struct {
	*sync.Mutex
	parked chan struct{}
}

func (p parkSpy) Unlock() {
	select {
	case p.parked <- struct{}{}:
	default:
	}
	p.Mutex.Unlock()
}

// TestWeightedSem pins the server admission semaphore: acquisition blocks
// until weight is released, close unblocks waiters with failure, and a
// frame's weight is bounded by capacity.
func TestWeightedSem(t *testing.T) {
	sem := newWeightedSem(10)
	if !sem.acquire(8) {
		t.Fatalf("acquire within capacity failed")
	}
	acquired := make(chan bool)
	go func() { acquired <- sem.acquire(4) }()
	select {
	case <-acquired:
		t.Fatalf("over-capacity acquire did not block")
	case <-time.After(50 * time.Millisecond):
	}
	sem.release(8)
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatalf("unblocked acquire reported closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("release did not unblock waiter")
	}

	parked := make(chan struct{}, 1)
	sem.cond = sync.NewCond(parkSpy{&sem.mu, parked})
	blocked := make(chan bool)
	go func() { blocked <- sem.acquire(100) }()
	<-parked
	sem.close()
	select {
	case ok := <-blocked:
		if ok {
			t.Fatalf("acquire on closed semaphore succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("close did not unblock waiter")
	}
}

// TestStreamCallBatchFallback pins CallBatch on a mesh with no connection to
// pipeline on: the in-memory endpoint completes a batch via concurrent Calls.
func TestStreamCallBatchFallback(t *testing.T) {
	mesh := NewInMemMesh(NewSim(SimConfig{}))
	srv, err := mesh.Attach(1, mirrorHandler)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	defer srv.Close()
	cli, err := mesh.Attach(2, mirrorHandler)
	if err != nil {
		t.Fatalf("attach client: %v", err)
	}
	defer cli.Close()
	if _, ok, _ := OpenStream(cli, 1); ok {
		t.Fatalf("the in-memory mesh opened a private connection")
	}

	reqs := make([]Message, 5)
	for i := range reqs {
		reqs[i] = Message{Kind: "q", Payload: []byte(strconv.Itoa(i))}
	}
	msgs, errs, err := cli.CallBatch(context.Background(), 1, reqs)
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	for i := range reqs {
		if errs[i] != nil {
			t.Errorf("call %d: %v", i, errs[i])
		} else if string(msgs[i].Payload) != strconv.Itoa(i) {
			t.Errorf("call %d: got %q", i, msgs[i].Payload)
		}
	}
}

// parseOne parses b, which must hold exactly one frame, with the read
// loops' parser.
func parseOne(b []byte) (muxFrame, error) {
	fr := frameReader{buf: b, w: len(b)}
	f, ok, err := fr.next()
	if err == nil && (!ok || fr.r != fr.w) {
		err = fmt.Errorf("%d bytes are not one frame", len(b))
	}
	return f, err
}

// TestMuxFrameCodec pins the frame layout round trip — request/success
// frames, and error frames with their code byte — and its bounds checks.
func TestMuxFrameCodec(t *testing.T) {
	frame := func(wr muxWrite) []byte { return append(wr.appendHeader(nil), wr.payload...) }

	ok := frame(muxWrite{corrID: 42, kind: "node.submit", payload: []byte("hello")})
	if want := 4 + 8 + 1 + len("node.submit") + 1 + len("hello"); len(ok) != want {
		t.Fatalf("success frame is %d bytes, want %d (a zero code byte and no message field)", len(ok), want)
	}
	f, err := parseOne(ok)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if f.corrID != 42 || f.kind != "node.submit" || f.herr != nil || string(f.payload) != "hello" {
		t.Fatalf("round trip: %d %q %v %q", f.corrID, f.kind, f.herr, f.payload)
	}

	bad := frame(muxWrite{corrID: 43, code: schema.CodeBackpressure, errMsg: "boom"})
	f, err = parseOne(bad)
	if err != nil {
		t.Fatalf("read error frame: %v", err)
	}
	if herr := f.herr; f.corrID != 43 || herr == nil || herr.Code != schema.CodeBackpressure || herr.Msg != "boom" || len(f.payload) != 0 {
		t.Fatalf("error frame round trip: %d %+v %q", f.corrID, herr, f.payload)
	}
	if !errors.Is(f.herr, schema.CodeBackpressure) || schema.CodeOf(f.herr).Class() != schema.NotExecuted {
		t.Fatalf("error frame lost its code: %v reads as %s", f.herr, schema.CodeOf(f.herr).Name())
	}

	// A code byte this build has no row for reads as CodeUnknown, message
	// kept (TestUnknownCodeByteReadsAsUnknown's rule for the hot frames).
	newer := frame(muxWrite{corrID: 44, code: 0xEE, errMsg: "from the future"})
	if f, err = parseOne(newer); err != nil {
		t.Fatalf("read newer-peer frame: %v", err)
	}
	if herr := f.herr; herr.Code != schema.CodeUnknown || schema.CodeOf(herr).Class() != schema.OutcomeUnknown || herr.Msg != "from the future" {
		t.Fatalf("code byte 0xEE decoded as %+v", herr)
	}

	// Truncated fields must be rejected, not read past the frame.
	for cut := 1; cut <= len("boom")+2; cut++ {
		short := append([]byte(nil), bad[:len(bad)-cut]...)
		binary.BigEndian.PutUint32(short[:4], uint32(len(short)-4))
		if _, err := parseOne(short); err == nil {
			t.Fatalf("error frame truncated by %d bytes accepted", cut)
		}
	}

	// A frame with an absurd length prefix must be rejected, not allocated.
	var huge [12]byte
	binary.BigEndian.PutUint32(huge[:4], 1<<30)
	if _, err := parseOne(huge[:]); err == nil {
		t.Fatalf("oversized frame accepted")
	}
}

// TestCallBatchLeavesInOneWrite pins the cork: the frames of one CallBatch
// are queued and leave in one socket write. (The fake server's replies are
// raw writes, so the counters see the calling end alone.)
func TestCallBatchLeavesInOneWrite(t *testing.T) {
	const frames = 64
	addr := fakeMuxServer(t, func(conn net.Conn, r *peerReader) {
		for i := 0; i < frames; i++ {
			id, p := readReqFrame(t, r)
			writeRespFrame(t, conn, id, p)
		}
	})
	s := dialFake(t, addr)
	reqs := make([]Message, frames)
	for i := range reqs {
		reqs[i] = Message{Kind: "q", Payload: []byte("frame-" + strconv.Itoa(i))}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	before := ReadMuxStats()
	if _, _, err := s.CallBatch(ctx, reqs); err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	after := ReadMuxStats()
	if f, w := after.FramesWritten-before.FramesWritten, after.SocketWrites-before.SocketWrites; f != frames || w != 1 {
		t.Fatalf("a %d-frame CallBatch left as %d frames in %d socket writes, want one write", frames, f, w)
	}
}

// TestConcurrentCallersShareAWrite pins the yield a sender makes between
// taking the flush role and writing: on one thread it is what lets a second
// caller bound for the same peer queue its frame behind the first one's, and
// the two handlers' responses share a write the same way. Without it every
// frame is its own syscall (ratio 1.0) and the single-frame path loses what
// the writer goroutines used to give it.
func TestConcurrentCallersShareAWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cli, _, _ := tcpPair(t, mirrorHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := cli.Call(ctx, 1, Message{Kind: "warm"}); err != nil {
		t.Fatal(err)
	}
	const callers, calls = 2, 5000
	before := ReadMuxStats()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := cli.Call(ctx, 1, Message{Kind: "echo", Payload: []byte("ping")}); err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	after := ReadMuxStats()
	frames, writes := after.FramesWritten-before.FramesWritten, after.SocketWrites-before.SocketWrites
	if ratio := float64(frames) / float64(writes); ratio <= 1.5 {
		t.Fatalf("%d frames took %d socket writes (%.2f frames per write), want more than 1.5", frames, writes, ratio)
	}
}

// TestDrainedSocketIsWaitedOn pins the read loops' wait: a read that did not
// fill the buffer drained the socket, and the loop parks in the poller until
// the next arrival instead of reading again to hear EAGAIN. Sequential calls
// on one thread put one frame on each end's socket at a time, so that is one
// read per frame; reading again after a short read makes it two.
func TestDrainedSocketIsWaitedOn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cli, _, _ := tcpPair(t, mirrorHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req := Message{Kind: "echo", Payload: []byte("ping")}
	if _, err := cli.Call(ctx, 1, req); err != nil {
		t.Fatal(err)
	}
	const calls = 2000
	before := ReadMuxStats()
	for i := 0; i < calls; i++ {
		if _, err := cli.Call(ctx, 1, req); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	after := ReadMuxStats()
	frames := 2 * calls // a request read by the server, a response by the client
	reads := after.SocketReads - before.SocketReads
	t.Logf("%d frames took %d read syscalls", frames, reads)
	if perFrame := float64(reads) / float64(frames); perFrame > 1.1 {
		t.Fatalf("%d frames took %d read syscalls (%.2f per frame), want at most 1.1", frames, reads, perFrame)
	}
}

// TestReadFramesBothDrivers feeds the same byte streams through both of the
// read loops' drivers — the RawConn.Read one over a TCP pair, the plain-Read
// one over net.Pipe — and checks what the shared parser hands on: frames
// split at every byte boundary, many frames in one write, a frame larger
// than the buffer (which grows it once), lengths out of bounds (refused
// before any handler runs) and EOF inside a frame (which fails the callers
// waiting on the stream with ErrStreamBroken).
func TestReadFramesBothDrivers(t *testing.T) {
	frame := func(id uint64, payload []byte) []byte {
		wr := muxWrite{corrID: id, kind: "q", payload: payload}
		return append(wr.appendHeader(nil), payload...)
	}
	three := slices.Concat(frame(1, []byte("one")), frame(2, nil), frame(3, []byte("three")))
	var hundred []byte
	for id := uint64(1); id <= 100; id++ {
		hundred = append(hundred, frame(id, []byte(strconv.Itoa(int(id))))...)
	}
	big := frame(1, bytes.Repeat([]byte{7}, 200<<10))
	short := binary.BigEndian.AppendUint32(nil, 7)
	short = append(append(short, make([]byte, 7)...), frame(1, nil)...)
	long := binary.BigEndian.AppendUint32(nil, maxMuxFrame+1)

	type stream struct {
		name   string
		writes [][]byte
		frames int    // whole frames handed on before the stream ends
		refuse string // the error the parser ends the stream with, if not EOF
		buf    int    // the buffer's size at the end
	}
	streams := []stream{
		{name: "hundred frames in one write", writes: [][]byte{hundred}, frames: 100, buf: muxReadBuffer},
		{name: "frame larger than the buffer, then a small one", writes: [][]byte{big, frame(2, []byte("small"))}, frames: 2, buf: len(big)},
		{name: "length below 8", writes: [][]byte{short}, refuse: "bad mux frame length 7", buf: muxReadBuffer},
		{name: "length above maxMuxFrame", writes: [][]byte{long}, refuse: fmt.Sprintf("bad mux frame length %d", maxMuxFrame+1), buf: muxReadBuffer},
		{name: "EOF inside a frame", writes: [][]byte{three[:len(three)-3]}, frames: 2, buf: muxReadBuffer},
	}
	for k := 1; k < len(three); k++ {
		streams = append(streams, stream{name: fmt.Sprintf("split at byte %d", k), writes: [][]byte{three[:k], three[k:]}, frames: 3, buf: muxReadBuffer})
	}

	drivers := []struct {
		name string
		pair func(t *testing.T) (read, write net.Conn)
		// settle returns once what was written since reads was sampled has
		// been read, so that the next write arrives apart from it.
		settle func(reads uint64)
	}{
		{"RawConn.Read", func(t *testing.T) (net.Conn, net.Conn) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			w, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			r, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _, _ = r.Close(), w.Close() })
			return r, w
		}, func(reads uint64) {
			for start := time.Now(); ReadMuxStats().SocketReads == reads && time.Since(start) < time.Second; {
				runtime.Gosched()
			}
		}},
		{"plain Read", func(t *testing.T) (net.Conn, net.Conn) {
			r, w := net.Pipe()
			t.Cleanup(func() { _, _ = r.Close(), w.Close() })
			return r, w
		}, func(uint64) {}}, // a pipe's Write returns once it has been read
	}

	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			for _, st := range streams {
				r, w := d.pair(t)
				var (
					fr    frameReader
					got   []muxFrame
					bufAt []*byte // the buffer each frame was parsed from
				)
				ended := make(chan error, 1)
				go func() {
					defer r.Close() // a write the reader will never read fails
					ended <- fr.readFrames(r, func(f muxFrame) error {
						f.payload = append([]byte(nil), f.payload...)
						got, bufAt = append(got, f), append(bufAt, &fr.buf[0])
						return nil
					})
				}()
				for i, b := range st.writes {
					reads := ReadMuxStats().SocketReads
					_, _ = w.Write(b)
					if i < len(st.writes)-1 {
						d.settle(reads)
					}
				}
				_ = w.Close()
				var err error
				select {
				case err = <-ended:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: the reader never saw the stream end", st.name)
				}
				switch {
				case st.refuse == "" && !errors.Is(err, io.EOF):
					t.Fatalf("%s: the stream ended with %v, want EOF", st.name, err)
				case st.refuse != "" && (err == nil || !strings.Contains(err.Error(), st.refuse)):
					t.Fatalf("%s: the stream ended with %v, want %q", st.name, err, st.refuse)
				case len(got) != st.frames:
					t.Fatalf("%s: %d frames handed on, want %d", st.name, len(got), st.frames)
				case len(fr.buf) != st.buf:
					t.Fatalf("%s: the buffer ends %d bytes long, want %d", st.name, len(fr.buf), st.buf)
				}
				for i, f := range got {
					if want := uint64(i + 1); f.corrID != want || f.kind != "q" {
						t.Fatalf("%s: frame %d is call %d kind %q, want call %d", st.name, i, f.corrID, f.kind, want)
					}
				}
				if st.name == "frame larger than the buffer, then a small one" && bufAt[0] != bufAt[1] {
					t.Fatalf("%s: the small frame grew the buffer again", st.name)
				}
				if st.name == "hundred frames in one write" && string(got[99].payload) != "100" {
					t.Fatalf("%s: the last payload is %q", st.name, got[99].payload)
				}
			}

			// A length out of bounds ends the server's loop before any handler runs.
			for _, b := range [][]byte{short, long} {
				r, w := d.pair(t)
				var handled atomic.Int32
				served := make(chan struct{})
				go func() {
					defer close(served)
					serveMux(r, 2, func(ctx context.Context, from NodeID, req Message) (Message, error) {
						handled.Add(1)
						return req, nil
					}, make(chan struct{}), func(*muxWorkerPool) {})
					_ = r.Close()
				}()
				_, _ = w.Write(b)
				<-served
				if n := handled.Load(); n != 0 {
					t.Fatalf("a frame length out of bounds ran %d handlers", n)
				}
			}

			// EOF inside a response fails the caller waiting for it.
			c, p := d.pair(t)
			go func() {
				defer p.Close()
				if _, ok := readMuxPreamble(p); !ok {
					return
				}
				pr := &peerReader{conn: p}
				req, err := pr.frame()
				if err != nil {
					return
				}
				resp := frame(req.corrID, []byte("cut short"))
				_, _ = p.Write(resp[:len(resp)-2])
			}()
			s, err := dialMux(c, 99, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := s.Call(ctx, Message{Kind: "q"}); !errors.Is(err, ErrStreamBroken) {
				t.Fatalf("a call whose response ended in EOF: %v, want ErrStreamBroken", err)
			}
		})
	}
}
