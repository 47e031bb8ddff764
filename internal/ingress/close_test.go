package ingress

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"aeon/internal/transport"
)

// packageGoroutines counts the goroutines running or created by this
// package's code: the calling test, and every flusher, started or not.
func packageGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "aeon/internal/ingress.") {
			n++
		}
	}
	return n
}

// TestGoRacingCloseFailsAtOnce replays the race between Go and Close in its
// losing order — Go has fetched the coalescer, Close drains and forgets it,
// then Go adds — and pins that the late future fails with ErrClientClosed
// inside add, returning its window slot, instead of arming a linger timer on
// a coalescer nobody will flush. It also pins the flusher's lifetime: Close
// returns with no goroutine left on a coalescer.
func TestGoRacingCloseFailsAtOnce(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	peer, err := mesh.Attach(1, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, errors.New("no frame may be sent")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	clk := UseManualClock(t)
	c, err := Dial(mesh, Config{Nodes: []transport.NodeID{1}, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := packageGoroutines()
	co := c.coalescerFor(1) // as Go does, before Close
	if got := packageGoroutines() - before; got != 1 {
		t.Fatalf("a new coalescer started %d flushers, want 1", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := packageGoroutines() - before; got != 0 {
		t.Fatalf("%d goroutines of the package outlived Close", got)
	}

	f := &Future{done: make(chan struct{})}
	c.window <- struct{}{} // the slot Go acquired
	co.add(BatchItem{Target: 7, Method: "ingest"}, false, f)
	select {
	case <-f.done:
	default:
		t.Fatal("a future added after Close was left pending")
	}
	if !errors.Is(f.err, ErrClientClosed) {
		t.Fatalf("late future err = %v, want ErrClientClosed", f.err)
	}
	if len(c.window) != 0 {
		t.Fatalf("the late future kept its window slot")
	}
	if n := clk.Armed(); n != 0 {
		t.Fatalf("the late add armed %d linger timers on a coalescer nobody flushes", n)
	}
}
