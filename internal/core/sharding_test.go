package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// TestDirectoryShardedStaleness verifies the forwarding-window semantics
// survive sharding: each context's staleness window is tracked on its own
// shard, independent of moves on other shards.
func TestDirectoryShardedStaleness(t *testing.T) {
	d := NewDirectory(80 * time.Millisecond)
	// Pick two IDs that land on different shards so the windows exercise
	// distinct stripes.
	a, b := ownership.ID(1), ownership.ID(2)
	for shardFor(b) == shardFor(a) {
		b++
	}
	d.Place(a, 10)
	d.Place(b, 20)

	if err := d.Move(a, 11); err != nil {
		t.Fatal(err)
	}
	// a forwards through its old host; b is untouched.
	host, via, fwd, ok := d.Route(a)
	if !ok || !fwd || host != 11 || via != 10 {
		t.Fatalf("Route(a) = %v %v %v %v; want 11 via 10 forwarded", host, via, fwd, ok)
	}
	if _, _, fwd, _ := d.Route(b); fwd {
		t.Fatal("move on a's shard leaked a forwarding window onto b")
	}
	// Once the window has passed, a routes directly again.
	if _, _, fwd, _ := d.routeAt(a, Now()+Instant(80*time.Millisecond)); fwd {
		t.Fatal("forwarding window did not expire")
	}
}

func TestDirectorySnapshot(t *testing.T) {
	d := NewDirectory(time.Second)
	const n = 300
	for i := 1; i <= n; i++ {
		d.Place(ownership.ID(i), cluster.ServerID(1+i%4))
	}
	if err := d.Move(ownership.ID(7), 9); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if len(snap) != n {
		t.Fatalf("snapshot size = %d; want %d", len(snap), n)
	}
	if snap[7] != 9 {
		t.Fatalf("snapshot[7] = %v; want moved host 9", snap[7])
	}
	for i := 1; i <= n; i++ {
		if i == 7 {
			continue
		}
		if want := cluster.ServerID(1 + i%4); snap[ownership.ID(i)] != want {
			t.Fatalf("snapshot[%d] = %v; want %v", i, snap[ownership.ID(i)], want)
		}
	}
}

// blockSchema is a minimal schema for executor tests: "wait" parks until
// its channel argument closes, "inc" bumps an int, "spawnInc" dispatches an
// inc sub-event at the context given in args[0], "sleep" sleeps for args[0].
func blockSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	b := s.MustDeclareClass("B", func() any { return new(int) })
	b.MustDeclareMethod("wait", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		started := args[0].Any().(chan struct{})
		release := args[1].Any().(chan struct{})
		close(started)
		<-release
		return schema.Value{}, nil
	})
	b.MustDeclareMethod("inc", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		n := call.State().(*int)
		*n++
		return schema.Int(*n), nil
	})
	b.MustDeclareMethod("spawnInc", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		call.Dispatch(args[0].ID(), "inc")
		return schema.Value{}, nil
	})
	b.MustDeclareMethod("sleep", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		time.Sleep(args[0].Any().(time.Duration))
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newExecTestRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, err := New(blockSchema(t), ownership.NewGraph(), cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSubmitAsyncBackpressure saturates a 1-worker/1-slot executor and
// verifies the overflow submission fails fast with the typed error.
func TestSubmitAsyncBackpressure(t *testing.T) {
	rt := newExecTestRuntime(t, Config{ExecWorkersPerServer: 1, ExecQueueDepth: 1})
	target, err := rt.CreateContext("B")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	running := rt.SubmitAsync(target, "wait", started, release)
	<-started // the single worker is now occupied

	queued := rt.SubmitAsync(target, "wait", make(chan struct{}, 1), release)
	// The queue slot is taken synchronously by trySubmit, so the third
	// submission must bounce regardless of scheduling.
	bounced := rt.SubmitAsync(target, "inc")
	if _, err := bounced.Wait(); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overflow submission err = %v; want ErrBackpressure", err)
	}
	if rt.Backpressure.Value() == 0 {
		t.Fatal("Backpressure counter not incremented")
	}

	close(release)
	if _, err := running.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Close()
}

// TestSubEventInlineFallback fills the executor queue and checks that a
// dispatched sub-event still runs (inline on the dispatcher) rather than
// being dropped or deadlocking.
func TestSubEventInlineFallback(t *testing.T) {
	rt := newExecTestRuntime(t, Config{ExecWorkersPerServer: 1, ExecQueueDepth: 1})
	target, err := rt.CreateContext("B")
	if err != nil {
		t.Fatal(err)
	}
	counterCtx, err := rt.CreateContext("B")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	running := rt.SubmitAsync(target, "wait", started, release)
	<-started
	// Fill the single queue slot.
	queued := rt.SubmitAsync(target, "wait", make(chan struct{}, 1), release)

	// Synchronous submit is unaffected by executor saturation; its
	// dispatched sub-event finds the queue full and runs inline, so the
	// side effect is visible once the runtime drains.
	if _, err := rt.Submit(counterCtx, "spawnInc", counterCtx); err != nil {
		t.Fatal(err)
	}
	close(release)
	if _, err := running.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Close() // waits for sub-events
	c, err := rt.Context(counterCtx)
	if err != nil {
		t.Fatal(err)
	}
	if n := *c.State().(*int); n != 1 {
		t.Fatalf("sub-event effect = %d; want 1", n)
	}
	if rt.SubEventErrors.Value() != 0 {
		t.Fatalf("sub-event errors = %d", rt.SubEventErrors.Value())
	}
}

// TestRecentLatencyMerged runs frames of events that each take about d and
// verifies the merged EWMA reproduces d — the signal the eManager's SLA
// policy consumes must be per event whatever the frame size, and must not be
// skewed by striping.
func TestRecentLatencyMerged(t *testing.T) {
	rt := newExecTestRuntime(t, Config{})
	defer rt.Close()
	target, err := rt.CreateContext("B")
	if err != nil {
		t.Fatal(err)
	}
	const d = time.Millisecond
	const frames, perFrame = 64, 4 // observations on most EWMA stripes, several on some
	for i := 0; i < frames; i++ {
		f := rt.BeginFrame()
		for j := 0; j < perFrame; j++ {
			if _, _, _, err := f.Run(target, "sleep", []schema.Value{schema.Of(d)}); err != nil {
				t.Fatal(err)
			}
		}
		f.End()
	}
	// A sleep never returns early, so every observation is at least d; a
	// frame observed whole would read perFrame·d.
	if got := rt.RecentLatency(); got < d || got > 2*d {
		t.Fatalf("RecentLatency = %v; want ~%v", got, d)
	}
	if n := rt.Latency.Count(); n != frames*perFrame || rt.Completed() != n {
		t.Fatalf("Latency.Count = %d, Completed = %d; want %d", n, rt.Completed(), frames*perFrame)
	}
	if q := rt.Latency.Quantile(0.5); q < d*9/10 || q > 2*d { // a bucket's floor may sit below d
		t.Fatalf("merged p50 = %v; want ~%v", q, d)
	}
}

// TestShardedRuntimeStress hammers every sharded structure at once under
// -race: concurrent context creation, event submission, migration
// (LockForMigration + Rehost), and destruction, spread across shards and
// servers. It asserts nothing beyond error-freeness and final accounting —
// the point is that the race detector sees the full interleaving space.
func TestShardedRuntimeStress(t *testing.T) {
	rt := newTestRuntime(t, 4)
	servers := rt.Cluster().Servers()

	// Shared rooms: submitters and migrators race on these.
	const nShared = 32
	shared := make([]ownership.ID, nShared)
	for i := range shared {
		id, err := rt.CreateContext("Room")
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = id
	}

	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*4)

	// Submitters: events on random shared rooms.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if _, err := rt.Submit(shared[rng.Intn(nShared)], "noop"); err != nil {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
			}
		}(int64(g))
	}

	// Creators/destroyers: private context lifecycles across shards.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id, err := rt.CreateContext("Room")
				if err != nil {
					errs <- fmt.Errorf("create: %w", err)
					return
				}
				if _, err := rt.Submit(id, "noop"); err != nil {
					errs <- fmt.Errorf("submit private: %w", err)
					return
				}
				if err := rt.DestroyContext(id); err != nil {
					errs <- fmt.Errorf("destroy: %w", err)
					return
				}
			}
		}(int64(goroutines + g))
	}

	// Migrators: rehost random shared rooms between servers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters/2; i++ {
				id := shared[rng.Intn(nShared)]
				release, err := rt.LockForMigration(id)
				if err != nil {
					errs <- fmt.Errorf("lock for migration: %w", err)
					return
				}
				to := servers[rng.Intn(len(servers))].ID()
				if err := rt.Rehost(id, to); err != nil {
					release()
					errs <- fmt.Errorf("rehost: %w", err)
					return
				}
				release()
			}
		}(int64(100 + g))
	}

	// Async submitters: exercise the executor pools concurrently.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				f := rt.SubmitAsync(shared[rng.Intn(nShared)], "noop")
				if _, err := f.Wait(); err != nil && !errors.Is(err, ErrBackpressure) {
					errs <- fmt.Errorf("async: %w", err)
					return
				}
			}
		}(int64(200 + g))
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// All private contexts were destroyed: only the shared rooms remain.
	if n := len(rt.Directory().Snapshot()); n != nShared {
		t.Fatalf("directory len = %d; want %d", n, nShared)
	}
	if got := rt.reg.len(); got != nShared {
		t.Fatalf("registry len = %d; want %d", got, nShared)
	}
}
