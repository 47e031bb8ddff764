package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSimLatencyLocalVsRemote(t *testing.T) {
	n := NewSim(SimConfig{BaseLatency: time.Millisecond, LocalLatency: 0})
	if d := n.Latency(1, 1, 0); d != 0 {
		t.Fatalf("local latency = %v; want 0", d)
	}
	if d := n.Latency(1, 2, 0); d != time.Millisecond {
		t.Fatalf("remote latency = %v; want 1ms", d)
	}
}

func TestSimLatencyBandwidth(t *testing.T) {
	n := NewSim(SimConfig{BaseLatency: 0, BandwidthMBps: 1}) // 1 MB/s
	d := n.Latency(1, 2, 1_000_000)
	if d < 900*time.Millisecond || d > 1100*time.Millisecond {
		t.Fatalf("1MB at 1MB/s = %v; want ≈1s", d)
	}
	if d := n.Latency(1, 2, 0); d != 0 {
		t.Fatalf("empty payload latency = %v; want 0", d)
	}
}

func TestSimJitterBounded(t *testing.T) {
	n := NewSim(SimConfig{BaseLatency: time.Millisecond, Jitter: time.Millisecond})
	for i := 0; i < 100; i++ {
		d := n.Latency(1, 2, 0)
		if d < time.Millisecond || d >= 2*time.Millisecond {
			t.Fatalf("latency %v outside [1ms, 2ms)", d)
		}
	}
}

// TestSimHopSleeps pins that a hop is charged in wall time: it takes at
// least the modelled latency, a lower bound no scheduler can break.
func TestSimHopSleeps(t *testing.T) {
	n := NewSim(SimConfig{BaseLatency: time.Millisecond})
	start := time.Now()
	if err := n.Hop(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < time.Millisecond {
		t.Fatalf("hop took %v; want at least the 1ms base latency", took)
	}
}

func TestSimPartition(t *testing.T) {
	n := NewSim(SimConfig{})
	n.Partition(1, 2)
	if err := n.Hop(1, 2, 0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v; want ErrPartitioned", err)
	}
	// Direction matters.
	if err := n.Hop(2, 1, 0); err != nil {
		t.Fatalf("reverse direction err = %v; want nil", err)
	}
	n.Heal(1, 2)
	if err := n.Hop(1, 2, 0); err != nil {
		t.Fatalf("after heal err = %v; want nil", err)
	}
}

func echoHandler(_ context.Context, from NodeID, req Message) (Message, error) {
	return Message{Kind: req.Kind + "-reply", Payload: append([]byte(fmt.Sprintf("from %v: ", from)), req.Payload...)}, nil
}

func TestInMemMeshCall(t *testing.T) {
	mesh := NewInMemMesh(NullNetwork{})
	a, err := mesh.Attach(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mesh.Attach(2, echoHandler); err != nil {
		t.Fatal(err)
	}
	resp, err := a.Call(context.Background(), 2, Message{Kind: "ping", Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "ping-reply" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestInMemMeshUnknownNode(t *testing.T) {
	mesh := NewInMemMesh(NullNetwork{})
	a, _ := mesh.Attach(1, echoHandler)
	if _, err := a.Call(context.Background(), 9, Message{}); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("err = %v; want ErrNodeUnknown", err)
	}
}

func TestInMemMeshDoubleAttach(t *testing.T) {
	mesh := NewInMemMesh(NullNetwork{})
	_, _ = mesh.Attach(1, echoHandler)
	if _, err := mesh.Attach(1, echoHandler); !errors.Is(err, ErrNodeAttached) {
		t.Fatalf("err = %v; want ErrNodeAttached", err)
	}
}

func TestInMemMeshClose(t *testing.T) {
	mesh := NewInMemMesh(NullNetwork{})
	a, _ := mesh.Attach(1, echoHandler)
	b, _ := mesh.Attach(2, echoHandler)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(context.Background(), 2, Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v; want ErrClosed", err)
	}
	// Node 1 is gone from the mesh.
	if _, err := b.Call(context.Background(), 1, Message{}); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("err = %v; want ErrNodeUnknown", err)
	}
	// The ID can be reused after Close.
	if _, err := mesh.Attach(1, echoHandler); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
}

func TestInMemMeshPartitioned(t *testing.T) {
	sim := NewSim(SimConfig{})
	mesh := NewInMemMesh(sim)
	a, _ := mesh.Attach(1, echoHandler)
	_, _ = mesh.Attach(2, echoHandler)
	sim.Partition(1, 2)
	if _, err := a.Call(context.Background(), 2, Message{}); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("err = %v; want ErrPartitioned", err)
	}
}

func TestTCPMeshCall(t *testing.T) {
	mesh := NewTCPMesh()
	a, err := mesh.Attach(1, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := mesh.Attach(2, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()

	resp, err := a.Call(context.Background(), 2, Message{Kind: "ping", Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "ping-reply" || string(resp.Payload) != "from node1: hello" {
		t.Fatalf("resp = %+v", resp)
	}
	// Round trip the other way, exercising a fresh connection.
	resp, err = b.Call(context.Background(), 1, Message{Kind: "pong"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "pong-reply" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestTCPMeshRemoteError(t *testing.T) {
	mesh := NewTCPMesh()
	a, _ := mesh.Attach(1, echoHandler)
	defer func() { _ = a.Close() }()
	failing, _ := mesh.Attach(2, func(_ context.Context, _ NodeID, _ Message) (Message, error) {
		return Message{}, errors.New("boom")
	})
	defer func() { _ = failing.Close() }()

	_, err := a.Call(context.Background(), 2, Message{Kind: "x"})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v; want RemoteError", err)
	}
	if remote.Msg != "boom" || remote.Node != 2 {
		t.Fatalf("remote = %+v", remote)
	}
}

func TestTCPMeshConcurrentCalls(t *testing.T) {
	mesh := NewTCPMesh()
	a, _ := mesh.Attach(1, echoHandler)
	defer func() { _ = a.Close() }()
	b, _ := mesh.Attach(2, echoHandler)
	defer func() { _ = b.Close() }()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := a.Call(context.Background(), 2,
				Message{Kind: "k", Payload: []byte(fmt.Sprintf("%d", i))})
			if err != nil {
				errs <- err
				return
			}
			if string(resp.Payload) != fmt.Sprintf("from node1: %d", i) {
				errs <- fmt.Errorf("mismatched reply %q for %d", resp.Payload, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPMeshUnknownNode(t *testing.T) {
	mesh := NewTCPMesh()
	a, _ := mesh.Attach(1, echoHandler)
	defer func() { _ = a.Close() }()
	if _, err := a.Call(context.Background(), 42, Message{}); !errors.Is(err, ErrNodeUnknown) {
		t.Fatalf("err = %v; want ErrNodeUnknown", err)
	}
}

func TestTCPMeshCloseIdempotent(t *testing.T) {
	mesh := NewTCPMesh()
	a, _ := mesh.Attach(1, echoHandler)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := a.Call(context.Background(), 1, Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v; want ErrClosed", err)
	}
}
