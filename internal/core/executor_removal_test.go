package core

import (
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// These tests pin down the executor-pool semantics around server removal
// (the ROADMAP open item): per-server queues are keyed by the target's host
// at submission time, queued work on a removed server's pool is NOT dropped
// — the orphaned pool keeps draining — and each event re-resolves its
// target's placement at execution time, so drained work re-routes to the
// context's current host. The test names document the chosen semantics.

func executorTestSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	gate := s.MustDeclareClass("Gate", func() any { return make(chan struct{}) })
	gate.MustDeclareMethod("block", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		started := args[0].Any().(chan struct{})
		close(started)
		<-call.State().(chan struct{})
		return schema.Value{}, nil
	})
	cell := s.MustDeclareClass("Cell", func() any { return new(atomic.Int64) })
	cell.MustDeclareMethod("bump", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Of(call.State().(*atomic.Int64).Add(1)), nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRemovedServerQueueDrainsAndReroutesAtExecution: work queued on a
// server's executor pool survives that server's removal. The pool keeps
// draining, and because routing re-resolves the directory at execution time,
// the drained events execute against the context's new host. Nothing is
// dropped and nothing reports backpressure.
func TestRemovedServerQueueDrainsAndReroutesAtExecution(t *testing.T) {
	s := executorTestSchema(t)
	cl := cluster.New(transport.NullNetwork{})
	a := cl.AddServer(cluster.M3Large)
	b := cl.AddServer(cluster.M3Large)
	rt, err := New(s, ownership.NewGraph(), cl, Config{
		ChargeClientHops:     false,
		AcquireTimeout:       10 * time.Second,
		ExecWorkersPerServer: 1, // one worker per server: easy to occupy
		ExecQueueDepth:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	gate, err := rt.CreateContextOn(a.ID(), "Gate")
	if err != nil {
		t.Fatal(err)
	}
	cellID, err := rt.CreateContextOn(a.ID(), "Cell")
	if err != nil {
		t.Fatal(err)
	}

	// Occupy server A's only executor worker.
	started := make(chan struct{})
	blockFut := rt.SubmitAsync(gate, "block", started)
	<-started

	// Queue work for the cell behind the blocked worker: it lands on A's
	// pool because A hosts the cell at submission time.
	const queued = 16
	futs := make([]*Future, 0, queued)
	for i := 0; i < queued; i++ {
		futs = append(futs, rt.SubmitAsync(cellID, "bump"))
	}

	// Scale in: migrate both contexts to B, then remove A. The gate is
	// mid-event; its placement moves while the handler runs, exactly like a
	// migration racing slow events.
	if err := rt.Rehost(cellID, b.ID()); err != nil {
		t.Fatal(err)
	}
	if err := rt.Rehost(gate, b.ID()); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveServer(a.ID()); err != nil {
		t.Fatalf("RemoveServer(A) with drained hosting: %v", err)
	}
	if _, ok := cl.Server(a.ID()); ok {
		t.Fatal("server A still resolvable after removal")
	}

	// Release the worker; the orphaned pool must drain every queued event.
	gctx, err := rt.Context(gate)
	if err != nil {
		t.Fatal(err)
	}
	close(gctx.State().(chan struct{}))
	if _, err := blockFut.Wait(); err != nil {
		t.Fatalf("blocking event failed: %v", err)
	}
	for i, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("queued event %d failed after server removal: %v", i, err)
		}
	}
	cctx, err := rt.Context(cellID)
	if err != nil {
		t.Fatal(err)
	}
	if got := cctx.State().(*atomic.Int64).Load(); got != queued {
		t.Fatalf("cell executed %d bumps; want %d (queued work was dropped)", got, queued)
	}
	if bp := rt.Backpressure.Value(); bp != 0 {
		t.Fatalf("Backpressure = %d; want 0", bp)
	}
}

// TestSubmitAfterServerRemovalUsesNewHostPool: once the directory maps a
// context to its new host, fresh asynchronous submissions enqueue on the new
// host's pool (the removed server's pool receives no new work) and execute
// normally.
func TestSubmitAfterServerRemovalUsesNewHostPool(t *testing.T) {
	s := executorTestSchema(t)
	cl := cluster.New(transport.NullNetwork{})
	a := cl.AddServer(cluster.M3Large)
	b := cl.AddServer(cluster.M3Large)
	rt, err := New(s, ownership.NewGraph(), cl, Config{ChargeClientHops: false, AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	cellID, err := rt.CreateContextOn(a.ID(), "Cell")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Rehost(cellID, b.ID()); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveServer(a.ID()); err != nil {
		t.Fatal(err)
	}

	if srv := rt.execServer(cellID); srv != b.ID() {
		t.Fatalf("execServer(cell) = %v after removal; want new host %v", srv, b.ID())
	}
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := rt.SubmitAsync(cellID, "bump").Wait(); err != nil {
			t.Fatalf("submit %d after removal: %v", i, err)
		}
	}
	cctx, err := rt.Context(cellID)
	if err != nil {
		t.Fatal(err)
	}
	if got := cctx.State().(*atomic.Int64).Load(); got != n {
		t.Fatalf("cell executed %d bumps; want %d", got, n)
	}
}
