package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ops"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// itemState is a gold store used by most runtime tests.
type itemState struct {
	Gold int
	// Log records event IDs in execution order (serializability oracle).
	mu  sync.Mutex
	log []uint64
}

func (s *itemState) record(ev uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = append(s.log, ev)
}

func (s *itemState) accessLog() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, len(s.log))
	copy(out, s.log)
	return out
}

// testWorld is the Figure 3-like fixture: a Room owning two Players that
// share two Items.
type testWorld struct {
	rt           *Runtime
	room, p1, p2 ownership.ID
	i1, i2       ownership.ID
}

func gameTestSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	room := s.MustDeclareClass("Room", func() any { return &itemState{} })
	player := s.MustDeclareClass("Player", func() any { return &itemState{} })
	item := s.MustDeclareClass("Item", func() any { return &itemState{} })

	item.MustDeclareMethod("add", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st, _ := call.State().(*itemState)
		st.record(call.EventID())
		st.Gold += args[0].Int()
		return schema.Int(st.Gold), nil
	})
	item.MustDeclareMethod("peek", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st, _ := call.State().(*itemState)
		return schema.Int(st.Gold), nil
	}, schema.RO())

	// transfer moves amt from item args[0] to item args[1] — acquisition
	// order follows the argument order, so two players calling with crossed
	// orders exercise the paper's deadlock scenario.
	player.MustDeclareMethod("transfer", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		from := args[0].ID()
		to := args[1].ID()
		amt := args[2].Int()
		if _, err := call.Sync(from, "add", schema.Int(-amt)); err != nil {
			return schema.Value{}, err
		}
		if _, err := call.Sync(to, "add", schema.Int(amt)); err != nil {
			return schema.Value{}, err
		}
		return schema.Value{}, nil
	}, schema.MayCall("Item", "add"))

	player.MustDeclareMethod("sum", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		total := 0
		items, err := call.Children("Item")
		if err != nil {
			return schema.Value{}, err
		}
		for _, it := range items {
			v, err := call.Sync(it, "peek")
			if err != nil {
				return schema.Value{}, err
			}
			total += v.Int()
		}
		return schema.Int(total), nil
	}, schema.RO(), schema.MayCall("Item", "peek"))

	room.MustDeclareMethod("noop", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Of("ok"), nil
	})
	room.MustDeclareMethod("broadcast", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		players, err := call.Children("Player")
		if err != nil {
			return schema.Value{}, err
		}
		var results []schema.AsyncResult
		for _, p := range players {
			results = append(results, call.Async(p, "transfer", args[0], args[1], schema.Int(args[2].Int())))
		}
		for _, r := range results {
			if _, err := r.Wait(); err != nil {
				return schema.Value{}, err
			}
		}
		return schema.Value{}, nil
	}, schema.MayCall("Player", "transfer"))

	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestRuntime(t *testing.T, nServers int) *Runtime {
	t.Helper()
	s := gameTestSchema(t)
	cl := cluster.New(transport.NullNetwork{})
	for i := 0; i < nServers; i++ {
		cl.AddServer(cluster.M3Large)
	}
	rt, err := New(s, ownership.NewGraph(), cl, Config{
		AcquireTimeout: 10 * time.Second, // deadlock watchdog for tests
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	rt := newTestRuntime(t, 2)
	w := &testWorld{rt: rt}
	var err error
	w.room, err = rt.CreateContext("Room")
	if err != nil {
		t.Fatal(err)
	}
	w.p1, _ = rt.CreateContext("Player", w.room)
	w.p2, _ = rt.CreateContext("Player", w.room)
	w.i1, err = rt.CreateContext("Item", w.p1, w.p2)
	if err != nil {
		t.Fatal(err)
	}
	w.i2, _ = rt.CreateContext("Item", w.p1, w.p2)
	// Seed gold.
	if _, err := rt.Submit(w.i1, "add", 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(w.i2, "add", 1000); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *testWorld) itemState(t *testing.T, id ownership.ID) *itemState {
	t.Helper()
	c, err := w.rt.Context(id)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := c.State().(*itemState)
	if !ok {
		t.Fatalf("state of %v is %T", id, c.State())
	}
	return st
}

func TestSubmitBasic(t *testing.T) {
	w := newTestWorld(t)
	res, err := w.rt.Submit(w.room, "noop")
	if err != nil {
		t.Fatal(err)
	}
	if res != "ok" {
		t.Fatalf("res = %v", res)
	}
}

func TestSubmitUnknownMethod(t *testing.T) {
	w := newTestWorld(t)
	if _, err := w.rt.Submit(w.room, "ghost"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v; want ErrUnknownMethod", err)
	}
}

func TestSubmitUnknownContext(t *testing.T) {
	w := newTestWorld(t)
	if _, err := w.rt.Submit(ownership.ID(9999), "noop"); !errors.Is(err, ErrUnknownContext) {
		t.Fatalf("err = %v; want ErrUnknownContext", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	w := newTestWorld(t)
	w.rt.Close()
	if _, err := w.rt.Submit(w.room, "noop"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v; want ErrClosed", err)
	}
}

func TestSubmitAsyncFuture(t *testing.T) {
	w := newTestWorld(t)
	f := w.rt.SubmitAsync(w.room, "noop")
	res, err := f.Wait()
	if err != nil || res != "ok" {
		t.Fatalf("future = %v, %v", res, err)
	}
}

func TestTransferMovesGold(t *testing.T) {
	w := newTestWorld(t)
	if _, err := w.rt.Submit(w.p1, "transfer", w.i1, w.i2, 100); err != nil {
		t.Fatal(err)
	}
	if g := w.itemState(t, w.i1).Gold; g != 900 {
		t.Fatalf("i1 gold = %d; want 900", g)
	}
	if g := w.itemState(t, w.i2).Gold; g != 1100 {
		t.Fatalf("i2 gold = %d; want 1100", g)
	}
}

// TestDeadlockScenarioFromPaper is § 4's example: Player1 moves gold
// Treasure→Horse while Player2 moves Horse→Treasure, concurrently and
// repeatedly. Without dominator sequencing the crossed acquisition order
// deadlocks; AEON must complete every event (the 10s acquire watchdog in
// the test runtime would trip otherwise) and conserve gold.
func TestDeadlockScenarioFromPaper(t *testing.T) {
	w := newTestWorld(t)
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := w.rt.Submit(w.p1, "transfer", w.i1, w.i2, 1); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := w.rt.Submit(w.p2, "transfer", w.i2, w.i1, 1); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("event failed (deadlock?): %v", err)
	}
	total := w.itemState(t, w.i1).Gold + w.itemState(t, w.i2).Gold
	if total != 2000 {
		t.Fatalf("gold total = %d; want 2000 (conservation)", total)
	}
}

// TestStrictSerializability runs randomized crossing transfers from many
// clients and validates the per-item access logs: the relative order of any
// two events must agree across all items they both touched (conflict
// serializability), which for this workload implies a single total order.
func TestStrictSerializability(t *testing.T) {
	w := newTestWorld(t)
	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				p, from, to := w.p1, w.i1, w.i2
				if rng.Intn(2) == 0 {
					p = w.p2
				}
				if rng.Intn(2) == 0 {
					from, to = to, from
				}
				if _, err := w.rt.Submit(p, "transfer", from, to, 1); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(int64(c + 1))
	}
	wg.Wait()

	log1 := w.itemState(t, w.i1).accessLog()
	log2 := w.itemState(t, w.i2).accessLog()

	// Each transfer touches both items, so both logs contain the same event
	// set; serializability of this workload requires identical order.
	pos1 := make(map[uint64]int, len(log1))
	for i, ev := range log1 {
		pos1[ev] = i
	}
	shared := 0
	prev := -1
	for _, ev := range log2 {
		p, ok := pos1[ev]
		if !ok {
			continue // seeding events touched a single item
		}
		shared++
		if p <= prev {
			t.Fatalf("event order disagrees between items: event %d at %d after %d", ev, p, prev)
		}
		prev = p
	}
	if shared < clients*perClient {
		t.Fatalf("only %d shared events logged; want ≥ %d", shared, clients*perClient)
	}
	if total := w.itemState(t, w.i1).Gold + w.itemState(t, w.i2).Gold; total != 2000 {
		t.Fatalf("gold total = %d; want 2000", total)
	}
}

// TestReadOnlyEventsRunConcurrently: readonly events share a context and
// exclusive ones do not, shown by who is inside a handler at once rather than
// by how long a batch took. Four readers park inside together; the first of
// four writers parks inside alone while the other three queue behind it.
func TestReadOnlyEventsRunConcurrently(t *testing.T) {
	var inside, most atomic.Int32
	enter := func() {
		n := inside.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
	}
	entered := make(chan struct{}, 4)
	var gate chan struct{}
	s := schema.New()
	cls := s.MustDeclareClass("C", func() any { return &itemState{} })
	park := func(call schema.Call, args []schema.Value) (schema.Value, error) {
		enter()
		entered <- struct{}{}
		<-gate
		inside.Add(-1)
		return schema.Value{}, nil
	}
	cls.MustDeclareMethod("read", park, schema.RO())
	cls.MustDeclareMethod("write", park)
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, err := New(s, ownership.NewGraph(), cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	id, _ := rt.CreateContext("C")
	c, _ := rt.Context(id)

	// run parks four events of one method behind a fresh gate; open lets
	// them through, and is deferred so that a failing check never strands
	// them.
	var open func()
	run := func(method string) *sync.WaitGroup {
		gate = make(chan struct{})
		open = sync.OnceFunc(func() { close(gate) })
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := rt.Submit(id, method); err != nil {
					t.Error(err)
				}
			}()
		}
		return &wg
	}
	awaitEntry := func(what string) {
		t.Helper()
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never entered the context", what)
		}
	}

	wg := run("read")
	defer func() { open() }()
	for i := 0; i < 4; i++ {
		awaitEntry("a readonly event")
	}
	if n := most.Load(); n != 4 {
		t.Fatalf("%d readonly events inside at once; want all 4", n)
	}
	open()
	wg.Wait()

	most.Store(0)
	wg = run("write")
	awaitEntry("the first exclusive event")
	waitFor(t, "three writers to queue behind the first", func() bool { return c.lock.queueLen() == 3 })
	open()
	for i := 0; i < 3; i++ {
		awaitEntry("a queued exclusive event")
	}
	wg.Wait()
	if n := most.Load(); n != 1 {
		t.Fatalf("%d exclusive events inside at once; want 1", n)
	}
}

func TestReadOnlyEventCannotMutate(t *testing.T) {
	w := newTestWorld(t)
	// sum is RO and only calls peek; calling add through an RO event
	// directly must fail.
	s := w.rt.Schema()
	if s.Class("Item").Method("add").ReadOnly {
		t.Fatal("test setup: add must be EX")
	}
	if _, err := w.rt.Submit(w.p1, "sum"); err != nil {
		t.Fatalf("RO event: %v", err)
	}
}

func TestAccessControl(t *testing.T) {
	w := newTestWorld(t)
	// A player calling an item it does not own directly: create a third
	// item under p2 only; p1 cannot reach it.
	i3, err := w.rt.CreateContext("Item", w.p2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.rt.Submit(w.p1, "transfer", i3, w.i2, 1)
	if !errors.Is(err, ErrNotOwned) {
		t.Fatalf("err = %v; want ErrNotOwned", err)
	}
}

func TestBroadcastAsync(t *testing.T) {
	w := newTestWorld(t)
	// Room broadcasts a transfer to both players: both run, gold conserved,
	// and the event completes only after both asyncs do.
	if _, err := w.rt.Submit(w.room, "broadcast", w.i1, w.i2, 5); err != nil {
		t.Fatal(err)
	}
	total := w.itemState(t, w.i1).Gold + w.itemState(t, w.i2).Gold
	if total != 2000 {
		t.Fatalf("total = %d; want 2000", total)
	}
	if g := w.itemState(t, w.i2).Gold; g != 1010 {
		t.Fatalf("i2 = %d; want 1010 (two +5 transfers)", g)
	}
}

func TestDominatorsInWorld(t *testing.T) {
	w := newTestWorld(t)
	d1, err := w.rt.Graph().Dom(w.p1)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != w.room {
		t.Fatalf("dom(p1) = %v; want room %v", d1, w.room)
	}
	di, _ := w.rt.Graph().Dom(w.i1)
	if di != w.i1 {
		t.Fatalf("dom(i1) = %v; want itself", di)
	}
}

func TestEventTargetingSharedItemDirectly(t *testing.T) {
	// The Fig. 4 E3 case: events can land directly on a shared leaf and
	// serialize against player events via the leaf's own queue.
	w := newTestWorld(t)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				_, err = w.rt.Submit(w.i1, "add", 1)
			} else {
				_, err = w.rt.Submit(w.p1, "transfer", w.i1, w.i2, 1)
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	total := w.itemState(t, w.i1).Gold + w.itemState(t, w.i2).Gold
	if total != 2010 {
		t.Fatalf("total = %d; want 2010", total)
	}
}

func TestVirtualDominatorSequencing(t *testing.T) {
	// Two root players sharing an item: the dominator is a virtual context;
	// crossing transfers must still serialize without deadlock.
	s := gameTestSchema(t)
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, err := New(s, ownership.NewGraph(), cl, Config{AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	p1, _ := rt.CreateContext("Player")
	p2, _ := rt.CreateContext("Player")
	i1, _ := rt.CreateContext("Item", p1, p2)
	i2, _ := rt.CreateContext("Item", p1, p2)
	if _, err := rt.Submit(i1, "add", 100); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, from, to := p1, i1, i2
			if i%2 == 0 {
				p, from, to = p2, i2, i1
			}
			if _, err := rt.Submit(p, "transfer", from, to, 1); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	c1, _ := rt.Context(i1)
	c2, _ := rt.Context(i2)
	total := c1.State().(*itemState).Gold + c2.State().(*itemState).Gold
	if total != 100 {
		t.Fatalf("total = %d; want 100", total)
	}
}

func TestDispatchSubEvent(t *testing.T) {
	s := schema.New()
	cls := s.MustDeclareClass("C", func() any { return &itemState{} })
	cls.MustDeclareMethod("add", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*itemState)
		st.Gold += args[0].Int()
		return schema.Value{}, nil
	})
	cls.MustDeclareMethod("addTwice", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*itemState)
		st.Gold += args[0].Int()
		// The second half runs as a separate event after this one.
		call.Dispatch(call.Self(), "add", args[0])
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := New(s, ownership.NewGraph(), cl, Config{})
	id, _ := rt.CreateContext("C")
	if _, err := rt.Submit(id, "addTwice", 5); err != nil {
		t.Fatal(err)
	}
	rt.Close() // waits for the dispatched sub-event
	c, _ := rt.Context(id)
	if g := c.State().(*itemState).Gold; g != 10 {
		t.Fatalf("gold = %d; want 10 after sub-event", g)
	}
}

// keeperState holds the argument lists TestDispatchCopiesItsArgs keeps.
type keeperState struct {
	kept [][]schema.Value
}

// TestDispatchCopiesItsArgs: Submit converts its `...any` into a buffer of
// its frame's pooled event record, which the next Submit reuses, so Dispatch
// — the one call that keeps arguments past its handler — copies them. A relay
// dispatches its own args, a string and an int ≥ 256, to a keeper that stores
// the list its sub-event received; after every later Submit has reused the
// record, each stored list still holds what its relay was given.
func TestDispatchCopiesItsArgs(t *testing.T) {
	const events = 200
	var kept sync.WaitGroup
	kept.Add(events)
	s := schema.New()
	cls := s.MustDeclareClass("Keeper", func() any { return &keeperState{} })
	cls.MustDeclareMethod("keep", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*keeperState)
		st.kept = append(st.kept, args)
		kept.Done()
		return schema.Value{}, nil
	})
	cls.MustDeclareMethod("relay", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		call.Dispatch(call.Self(), "keep", args...)
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, err := New(s, ownership.NewGraph(), cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	id, _ := rt.CreateContext("Keeper")
	for i := range events {
		if _, err := rt.Submit(id, "relay", fmt.Sprintf("memo %d", i), 1000+i); err != nil {
			t.Fatal(err)
		}
	}
	kept.Wait()
	c, _ := rt.Context(id)
	seen := make(map[int]bool)
	for _, args := range c.State().(*keeperState).kept {
		var got []any
		for _, v := range args {
			got = append(got, v.Any())
		}
		n, _ := got[len(got)-1].(int)
		if want := []any{fmt.Sprintf("memo %d", n-1000), n}; !reflect.DeepEqual(got, want) || seen[n] {
			t.Fatalf("a dispatched sub-event kept %v after later events reused the record (or ran twice); want %v", got, want)
		}
		seen[n] = true
	}
}

func TestNewContextWithinEvent(t *testing.T) {
	s := schema.New()
	parent := s.MustDeclareClass("Parent", func() any { return &itemState{} })
	s.MustDeclareClass("Child", func() any { return &itemState{} }).
		MustDeclareMethod("add", func(call schema.Call, args []schema.Value) (schema.Value, error) {
			call.State().(*itemState).Gold += args[0].Int()
			return schema.Value{}, nil
		})
	parent.MustDeclareMethod("spawn", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		id, err := call.NewContext("Child", call.Self())
		if err != nil {
			return schema.Value{}, err
		}
		// The fresh child is immediately callable within this event.
		if _, err := call.Sync(id, "add", schema.Int(42)); err != nil {
			return schema.Value{}, err
		}
		return schema.Of(id), nil
	}, schema.MayCall("Child", "add"))
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := New(s, ownership.NewGraph(), cl, Config{})
	defer rt.Close()
	p, _ := rt.CreateContext("Parent")
	res, err := rt.Submit(p, "spawn")
	if err != nil {
		t.Fatal(err)
	}
	childID := res.(ownership.ID)
	c, err := rt.Context(childID)
	if err != nil {
		t.Fatal(err)
	}
	if g := c.State().(*itemState).Gold; g != 42 {
		t.Fatalf("child gold = %d; want 42", g)
	}
	// Locality: the child is co-located with its owner.
	ps, _ := rt.Directory().Locate(p)
	cs, _ := rt.Directory().Locate(childID)
	if ps != cs {
		t.Fatalf("child on %v; owner on %v; want co-located", cs, ps)
	}
}

// TestCrabReleasesEarly: once payment crabs into the district, the warehouse
// is free for the next event while the district handler is still running —
// here parked on a gate that only opens after the second event got in.
func TestCrabReleasesEarly(t *testing.T) {
	parked := make(chan struct{})
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	s := schema.New()
	wh := s.MustDeclareClass("Warehouse", func() any { return &itemState{} })
	district := s.MustDeclareClass("District", func() any { return &itemState{} })
	district.MustDeclareMethod("slow", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		close(parked)
		<-gate
		call.State().(*itemState).Gold++
		return schema.Value{}, nil
	})
	wh.MustDeclareMethod("payment", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		call.State().(*itemState).Gold++
		return schema.Value{}, call.Crab(args[0].ID(), "slow")
	}, schema.MayCall("District", "slow"))
	wh.MustDeclareMethod("quick", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := New(s, ownership.NewGraph(), cl, Config{})
	defer rt.Close()
	w, _ := rt.CreateContext("Warehouse")
	d, _ := rt.CreateContext("District", w)
	defer open()

	f := rt.SubmitAsync(w, "payment", d)
	<-parked
	quick := make(chan error, 1)
	go func() {
		_, err := rt.Submit(w, "quick")
		quick <- err
	}()
	select {
	case err := <-quick:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a second event could not enter the warehouse while the crabbed district handler ran")
	}
	open()
	if _, err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	dc, _ := rt.Context(d)
	if g := dc.State().(*itemState).Gold; g != 1 {
		t.Fatalf("district work lost: gold = %d", g)
	}
}

func TestMigrationLockDrainsAndBlocks(t *testing.T) {
	w := newTestWorld(t)
	release, err := w.rt.LockForMigration(w.i1)
	if err != nil {
		t.Fatal(err)
	}
	// An event needing i1 must wait.
	done := make(chan error, 1)
	go func() {
		_, err := w.rt.Submit(w.p1, "transfer", w.i1, w.i2, 1)
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("event completed while context was migration-locked")
	case <-time.After(30 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	release() // idempotent
}

func TestRehostMovesPlacement(t *testing.T) {
	w := newTestWorld(t)
	servers := w.rt.Cluster().Servers()
	from, _ := w.rt.Directory().Locate(w.i1)
	var to cluster.ServerID
	for _, s := range servers {
		if s.ID() != from {
			to = s.ID()
			break
		}
	}
	release, err := w.rt.LockForMigration(w.i1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.rt.Rehost(w.i1, to); err != nil {
		t.Fatal(err)
	}
	release()
	got, _ := w.rt.Directory().Locate(w.i1)
	if got != to {
		t.Fatalf("host = %v; want %v", got, to)
	}
	// Events still work after the move.
	if _, err := w.rt.Submit(w.i1, "add", 1); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyContext(t *testing.T) {
	w := newTestWorld(t)
	i3, _ := w.rt.CreateContext("Item", w.p1)
	if err := w.rt.DestroyContext(i3); err != nil {
		t.Fatal(err)
	}
	if _, err := w.rt.Context(i3); !errors.Is(err, ErrUnknownContext) {
		t.Fatalf("err = %v; want ErrUnknownContext", err)
	}
}

func TestLatencyMetrics(t *testing.T) {
	w := newTestWorld(t)
	for i := 0; i < 10; i++ {
		if _, err := w.rt.Submit(w.room, "noop"); err != nil {
			t.Fatal(err)
		}
	}
	if w.rt.Completed() < 10 {
		t.Fatalf("completed = %d", w.rt.Completed())
	}
	if w.rt.RecentLatency() <= 0 {
		t.Fatal("recent latency should be positive")
	}
	if w.rt.Latency.Count() < 10 {
		t.Fatalf("latency samples = %d", w.rt.Latency.Count())
	}
}

// TestActivationWaitIsTimed: an activation that queues behind another event
// is counted and timed, on /metrics too, and one that does not queue is
// neither. An event parks inside a context on a gate; a second event queues
// behind it; the gate opens.
func TestActivationWaitIsTimed(t *testing.T) {
	entered := make(chan struct{}, 2)
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	s := schema.New()
	s.MustDeclareClass("C", nil).MustDeclareMethod("hold", func(schema.Call, []schema.Value) (schema.Value, error) {
		entered <- struct{}{}
		<-gate
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, err := New(s, ownership.NewGraph(), cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	reg := ops.NewRegistry(0)
	rt.RegisterOps(reg)
	id, _ := rt.CreateContext("C")
	c, _ := rt.Context(id)
	defer open()

	first := rt.SubmitAsync(id, "hold")
	<-entered
	if n := rt.ActivationWaits.Value(); n != 0 || rt.ActivationWait.Count() != 0 {
		t.Fatalf("an uncontended activation was counted (%d) or timed (%d)", n, rt.ActivationWait.Count())
	}
	second := rt.SubmitAsync(id, "hold")
	waitFor(t, "the second event to queue", func() bool { return c.lock.queueLen() == 1 })
	open()
	for _, f := range []*Future{first, second} {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if waits, timed := rt.ActivationWaits.Value(), rt.ActivationWait.Count(); waits != 1 || timed != waits {
		t.Fatalf("waits counted %d, timed %d; want the one queued activation in both", waits, timed)
	}
	if rt.ActivationWait.Sum() <= 0 {
		t.Fatalf("activation wait sum = %v; want the queued time", rt.ActivationWait.Sum())
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"aeon_activation_waits_total 1\n", "aeon_activation_wait_seconds_count 1\n"} {
		if !strings.Contains(out.String(), line) {
			t.Fatalf("/metrics lacks %q", line)
		}
	}
}

func TestStateBytes(t *testing.T) {
	w := newTestWorld(t)
	c, _ := w.rt.Context(w.i1)
	if n := c.StateBytes(); n <= 0 {
		t.Fatalf("StateBytes = %d", n)
	}
}

// TestSubmitManyParallelRooms: events in disjoint rooms run in parallel (the
// scalability property) — all eight are inside their handlers at once, which
// a runtime that serialized them could never reach.
func TestSubmitManyParallelRooms(t *testing.T) {
	const rooms = 8
	arrived := make(chan struct{}, rooms)
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	s := schema.New()
	room := s.MustDeclareClass("Room", nil)
	room.MustDeclareMethod("work", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		arrived <- struct{}{}
		<-gate
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	for i := 0; i < rooms; i++ {
		cl.AddServer(cluster.M3Large)
	}
	rt, _ := New(s, ownership.NewGraph(), cl, Config{})
	defer rt.Close()
	defer open()
	var wg sync.WaitGroup
	for i := 0; i < rooms; i++ {
		id, _ := rt.CreateContext("Room")
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Submit(id, "work"); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < rooms; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d disjoint events inside at once; want all of them", i, rooms)
		}
	}
	open()
	wg.Wait()
}

func TestHopChargingAcrossServers(t *testing.T) {
	// With a 5ms network, an event whose dominator and target live on
	// different servers must take ≥ client→dom + dom→target hops.
	s := gameTestSchema(t)
	sim := transport.NewSim(transport.SimConfig{BaseLatency: 5 * time.Millisecond})
	cl := cluster.New(sim)
	s1 := cl.AddServer(cluster.M3Large)
	s2 := cl.AddServer(cluster.M3Large)
	rt, _ := New(s, ownership.NewGraph(), cl, DefaultConfig())
	defer rt.Close()
	room, _ := rt.CreateContextOn(s1.ID(), "Room")
	p1, _ := rt.CreateContextOn(s2.ID(), "Player", room)
	p2, _ := rt.CreateContextOn(s2.ID(), "Player", room)
	i1, _ := rt.CreateContextOn(s2.ID(), "Item", p1, p2)
	i2, _ := rt.CreateContextOn(s2.ID(), "Item", p1, p2)

	start := time.Now()
	if _, err := rt.Submit(p1, "transfer", i1, i2, 0); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	// client→room (5ms) + room→player (5ms) + reply (5ms) ≥ 15ms; item
	// calls are co-located with the player.
	if el < 15*time.Millisecond {
		t.Fatalf("event took %v; want ≥15ms of charged hops", el)
	}
	_ = fmt.Sprintf("%v", el)
}
