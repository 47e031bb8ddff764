package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"aeon/internal/alloctest"
	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// hubState lists the leaves a Hub fans out to; leafState counts touches.
type hubState struct {
	leaves []ownership.ID
	sum    int
}
type leafState struct{ n int }

// fanSchema declares the sub-call fixture. Hub.fan and Leaf.touch allocate
// nothing themselves — fan forwards the args slice it was given and both
// return nil — so whatever a Submit of them allocates is the runtime's own.
// Hub.tally is fan with results: it sums what Leaf.bump returns, a count that
// is past the runtime's preboxed small ints once warm, keeps the sum and
// returns nil.
func fanSchema(t testing.TB) *schema.Schema {
	t.Helper()
	s := schema.New()
	hub := s.MustDeclareClass("Hub", func() any { return &hubState{} })
	leaf := s.MustDeclareClass("Leaf", func() any { return &leafState{} })
	link := s.MustDeclareClass("Link", nil)
	leaf.MustDeclareMethod("touch", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		call.State().(*leafState).n++
		return schema.Value{}, nil
	})
	leaf.MustDeclareMethod("bump", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		st := call.State().(*leafState)
		st.n++
		return schema.Int(st.n), nil
	})
	leaf.MustDeclareMethod("peek", func(schema.Call, []schema.Value) (schema.Value, error) { return schema.Value{}, nil }, schema.RO())
	leaf.MustDeclareMethod("count", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		return schema.Int(call.State().(*leafState).n), nil
	}, schema.RO())
	hub.MustDeclareMethod("fan", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		for _, l := range call.State().(*hubState).leaves {
			if _, err := call.Sync(l, "touch", args...); err != nil {
				return schema.Value{}, err
			}
		}
		return schema.Value{}, nil
	}, schema.MayCall("Leaf", "touch"))
	hub.MustDeclareMethod("tally", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		sum := 0
		for _, l := range call.State().(*hubState).leaves {
			v, err := call.Sync(l, "bump")
			if err != nil {
				return schema.Value{}, err
			}
			sum += v.Int()
		}
		call.State().(*hubState).sum = sum
		return schema.Value{}, nil
	}, schema.MayCall("Leaf", "bump"))
	// list counts the hub's Leaf children.
	hub.MustDeclareMethod("list", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		leaves, err := call.Children("Leaf")
		return schema.Int(len(leaves)), err
	}, schema.RO())
	// spawn creates a leaf under the hub and calls it within the same event.
	hub.MustDeclareMethod("spawn", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		id, err := call.NewContext("Leaf", call.Self())
		if err != nil {
			return schema.Value{}, err
		}
		_, err = call.Sync(id, "touch")
		return schema.Of(id), err
	}, schema.MayCall("Leaf", "touch"))
	// poke calls the first leaf without having declared access to Leaf.
	hub.MustDeclareMethod("poke", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		return call.Sync(call.State().(*hubState).leaves[0], "touch")
	})
	// burst races args[0] asynchronous branches on the hub's first leaf.
	hub.MustDeclareMethod("burst", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		l := call.State().(*hubState).leaves[0]
		rs := make([]schema.AsyncResult, args[0].Int())
		for i := range rs {
			rs[i] = call.Async(l, "touch")
		}
		for _, r := range rs {
			if _, err := r.Wait(); err != nil {
				return schema.Value{}, err
			}
		}
		return schema.Value{}, nil
	}, schema.MayCall("Leaf", "touch"))
	// down recurses along a chain of Links and reports its depth.
	link.MustDeclareMethod("down", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		kids, err := call.Children("Link")
		if err != nil || len(kids) == 0 {
			return schema.Int(1), err
		}
		d, err := call.Sync(kids[0], "down")
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Int(d.Int() + 1), nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// fanWorld is nHubs Hubs that all own the same nLeaves Leaves: with one hub
// it is its own dominator, with several every event is sequenced at their
// virtual join and escorted down the memoised activation path.
type fanWorld struct {
	rt     *Runtime
	hubs   []ownership.ID
	leaves []ownership.ID
}

func newFanWorld(t testing.TB, nHubs, nLeaves int, net transport.Network, nServers int) *fanWorld {
	t.Helper()
	cl := cluster.New(net)
	for i := 0; i < nServers; i++ {
		cl.AddServer(cluster.M3Large)
	}
	rt, err := New(fanSchema(t), ownership.NewGraph(), cl, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	w := &fanWorld{rt: rt}
	first := cl.Servers()[0].ID()
	for i := 0; i < nHubs; i++ {
		h, err := rt.CreateContextOn(first, "Hub")
		if err != nil {
			t.Fatal(err)
		}
		w.hubs = append(w.hubs, h)
	}
	for i := 0; i < nLeaves; i++ {
		l, err := rt.CreateContextOn(first, "Leaf", w.hubs...)
		if err != nil {
			t.Fatal(err)
		}
		w.leaves = append(w.leaves, l)
	}
	for _, h := range w.hubs {
		w.aim(t, h, w.leaves...)
	}
	return w
}

// aim points a hub's fan-out at the given leaves.
func (w *fanWorld) aim(t testing.TB, hub ownership.ID, leaves ...ownership.ID) {
	t.Helper()
	c, err := w.rt.Context(hub)
	if err != nil {
		t.Fatal(err)
	}
	c.SetState(&hubState{leaves: leaves})
}

func (w *fanWorld) submit(t testing.TB, target ownership.ID, method string, args ...any) any {
	t.Helper()
	res, err := w.rt.Submit(target, method, args...)
	if err != nil {
		t.Fatalf("%v.%s: %v", target, method, err)
	}
	return res
}

// TestSubCallPathAllocatesNothing is the core allocation gate: on a warmed
// runtime a fan-out event with 8 synchronous sub-calls — sequenced at its
// own context, or at a virtual join with path activation, with or without
// int results ≥ 256 coming back up — and a single-context event make no
// allocation inside the runtime. (When the gate was added the same events
// made 12–14 and 1; before method results were schema.Values the results
// case made 8, one box per callee.)
func TestSubCallPathAllocatesNothing(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped event is rebuilt from scratch")
	}
	args := []any{"msg"}
	for _, tc := range []struct {
		name  string
		hubs  int
		event func(w *fanWorld) (ownership.ID, string)
	}{
		{"fan-out, own dominator", 1, func(w *fanWorld) (ownership.ID, string) { return w.hubs[0], "fan" }},
		{"fan-out, virtual-join dominator", 2, func(w *fanWorld) (ownership.ID, string) { return w.hubs[1], "fan" }},
		{"single context, exclusive", 1, func(w *fanWorld) (ownership.ID, string) { return w.leaves[0], "touch" }},
		{"single context below a join, readonly", 2, func(w *fanWorld) (ownership.ID, string) { return w.leaves[3], "peek" }},
		{"fan-out, callee results ≥ 256", 1, func(w *fanWorld) (ownership.ID, string) { return w.hubs[0], "tally" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newFanWorld(t, tc.hubs, 8, transport.NullNetwork{}, 1)
			target, method := tc.event(w)
			submit := func() {
				if _, err := w.rt.Submit(target, method, args...); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 300; i++ {
				submit() // warm: event pool, child table, dominator and path memo; counts past 255
			}
			if n := testing.AllocsPerRun(500, submit); n != 0 {
				t.Fatalf("%s.%s: %v allocations per event inside the runtime; want 0", target, method, n)
			}
		})
	}
}

// TestChildrenListingAllocatesNothing: a handler that lists 32 children, all
// of the class it asks for, is handed the ownership snapshot's own slice
// (the parent commit copied it, one allocation per listing).
func TestChildrenListingAllocatesNothing(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped event is rebuilt from scratch")
	}
	w := newFanWorld(t, 1, 32, transport.NullNetwork{}, 1)
	list := func() {
		if n, err := w.rt.Submit(w.hubs[0], "list"); err != nil || n != 32 {
			t.Fatalf("list = %v, %v; want 32", n, err)
		}
	}
	for i := 0; i < 100; i++ {
		list()
	}
	if n := testing.AllocsPerRun(500, list); n != 0 {
		t.Fatalf("listing 32 children allocates %v per event; want 0", n)
	}
}

// TestChildrenListingIsReadOnly: appending to a listing never writes into
// the snapshot, and a class filter that drops a child lists the rest.
func TestChildrenListingIsReadOnly(t *testing.T) {
	var got []ownership.ID
	s := schema.New()
	box := s.MustDeclareClass("Box", nil)
	s.MustDeclareClass("Leaf", nil)
	box.MustDeclareMethod("kids", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		kids, err := call.Children(args[0].Str())
		got = append(kids, ownership.None) // must copy, not extend the snapshot's slice
		return schema.Value{}, err
	}, schema.RO())
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	srv := cl.AddServer(cluster.M3Large).ID()
	rt, err := New(s, ownership.NewGraph(), cl, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	root, _ := rt.CreateContextOn(srv, "Box")
	var want []ownership.ID
	for _, class := range []string{"Leaf", "Box", "Leaf"} {
		id, err := rt.CreateContextOn(srv, class, root)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	for _, tc := range []struct {
		class string
		want  []ownership.ID
	}{
		{"", want},
		{"Leaf", []ownership.ID{want[0], want[2]}},
		{"Box", want[1:2]},
	} {
		if _, err := rt.Submit(root, "kids", tc.class); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[:len(got)-1], tc.want) {
			t.Fatalf("Children(%q) = %v; want %v", tc.class, got[:len(got)-1], tc.want)
		}
	}
	if all, _ := rt.Graph().Children(root); !reflect.DeepEqual(all, want) {
		t.Fatalf("snapshot children = %v after appends to listings; want %v", all, want)
	}
}

// The child-table invalidation tests below share one shape: an event warms
// the caller's table, the ownership network changes, and the next event must
// see the change. Each fails if ownedChild trusts a table without comparing
// its node to the caller's current one.

func TestChildTableSeesRemovedEdge(t *testing.T) {
	w := newFanWorld(t, 1, 8, transport.NullNetwork{}, 1)
	w.submit(t, w.hubs[0], "fan")
	if err := w.rt.Graph().RemoveEdge(w.hubs[0], w.leaves[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.rt.Submit(w.hubs[0], "fan"); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("fan after RemoveEdge: err = %v; want ErrNotOwned", err)
	}
	w.aim(t, w.hubs[0], w.leaves[:3]...)
	w.submit(t, w.hubs[0], "fan") // the remaining children are still callable
}

func TestChildTableSeesAddedEdge(t *testing.T) {
	w := newFanWorld(t, 1, 2, transport.NullNetwork{}, 1)
	other, err := w.rt.CreateContext("Hub")
	if err != nil {
		t.Fatal(err)
	}
	w.aim(t, other, w.leaves[0])
	if _, err := w.rt.Submit(other, "fan"); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("fan into an unowned leaf: err = %v; want ErrNotOwned", err)
	}
	if err := w.rt.AddOwnerEdge(other, w.leaves[0]); err != nil {
		t.Fatal(err)
	}
	w.submit(t, other, "fan")
}

// A destroyed child also loses its placement, so any call into it ends in
// ErrUnknownContext once it is routed; what only the table can get wrong is
// the order of the checks. Existence comes first: an undeclared access to a
// live leaf is ErrAccessDenied, to a destroyed one ErrUnknownContext.
func TestChildTableSeesDestroyedChild(t *testing.T) {
	w := newFanWorld(t, 1, 4, transport.NullNetwork{}, 1)
	w.submit(t, w.hubs[0], "fan")
	if _, err := w.rt.Submit(w.hubs[0], "poke"); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("undeclared access to a live leaf: err = %v; want ErrAccessDenied", err)
	}
	if err := w.rt.DestroyContext(w.leaves[0]); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"poke", "fan"} {
		if _, err := w.rt.Submit(w.hubs[0], method); !errors.Is(err, ErrUnknownContext) {
			t.Fatalf("%s into a destroyed leaf: err = %v; want ErrUnknownContext", method, err)
		}
	}
}

func TestChildTableSeesContextCreatedInsideEvent(t *testing.T) {
	w := newFanWorld(t, 1, 4, transport.NullNetwork{}, 1)
	w.submit(t, w.hubs[0], "fan")
	id := w.submit(t, w.hubs[0], "spawn").(ownership.ID)
	if n := w.submit(t, id, "count"); n != 1 {
		t.Fatalf("spawned leaf was touched %v times inside its creating event; want 1", n)
	}
	w.aim(t, w.hubs[0], append(w.leaves, id)...)
	w.submit(t, w.hubs[0], "fan")
}

// hopLog is a latency-charging network that records every hop it charges.
type hopLog struct {
	*transport.SimNetwork
	mu   sync.Mutex
	hops [][2]transport.NodeID
}

func (h *hopLog) Hop(from, to transport.NodeID, bytes int) error {
	h.mu.Lock()
	h.hops = append(h.hops, [2]transport.NodeID{from, to})
	h.mu.Unlock()
	return h.SimNetwork.Hop(from, to, bytes)
}

// take returns and clears the hops charged so far.
func (h *hopLog) take() [][2]transport.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	hops := h.hops
	h.hops = nil
	return hops
}

// moveGroup rehosts ids, listed top-down, to one server the way a group
// migration does: stop window, one directory update, release.
func (w *fanWorld) moveGroup(t testing.TB, to cluster.ServerID, ids ...ownership.ID) {
	t.Helper()
	release, err := w.rt.LockGroupForMigration(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := w.rt.RehostBatch(ids, to); err != nil {
		t.Fatal(err)
	}
}

// TestSubCallHopCharging pins what a synchronous sub-call is charged on a
// latency-charging network. A hop is charged when a message is sent, that is
// between two servers: nothing when callee and caller share a server, one EXEC
// hop across servers, and inside the staleness window after the callee alone
// migrated the stale-cache detour — caller's host → old host → new host — even
// though the caller's child table was warm before the move (the table caches
// runtime entries, not placement). When caller and callees migrated together
// the caller sits on the callees' host and has no route to be stale about:
// only the client's ACT message pays the detour.
func TestSubCallHopCharging(t *testing.T) {
	net := &hopLog{SimNetwork: transport.NewSim(transport.SimConfig{BaseLatency: time.Microsecond})}
	w := newFanWorld(t, 1, 2, net, 2)
	servers := w.rt.Cluster().Servers()
	s1, s2 := servers[0].ID(), servers[1].ID()
	hub, near, mover := w.hubs[0], w.leaves[0], w.leaves[1]
	far, err := w.rt.CreateContextOn(s2, "Leaf", hub)
	if err != nil {
		t.Fatal(err)
	}
	type hops = [][2]transport.NodeID
	act, reply := hops{{transport.ClientNode, s1}}, hops{{s1, transport.ClientNode}} // the client's request in, the reply out
	check := func(name string, exec hops, leaves ...ownership.ID) {
		t.Helper()
		w.aim(t, hub, leaves...)
		net.take()
		w.submit(t, hub, "fan")
		want := append(append(append(hops{}, act...), exec...), reply...)
		if got := net.take(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: hops charged = %v; want %v", name, got, want)
		}
	}
	check("same server", nil, near)
	check("cross server", hops{{s1, s2}}, far)
	check("before the move", nil, mover)
	w.moveGroup(t, s2, mover)
	check("callee moved, inside the staleness window", hops{{s1, s1}, {s1, s2}}, mover)
	closeWindows(w.rt.dir)
	check("callee moved, window closed", hops{{s1, s2}}, mover)

	// The whole group follows: hub and near join mover and far on s2.
	w.moveGroup(t, s2, hub, near, mover, far)
	act, reply = hops{{transport.ClientNode, s1}, {s1, s2}}, hops{{s2, transport.ClientNode}}
	check("group moved, inside the staleness window", nil, near, mover, far)
	closeWindows(w.rt.dir)
	act = hops{{transport.ClientNode, s2}}
	check("group moved, window closed", nil, near, mover, far)
}

// TestInWindowEventTakesNoDirectoryLock: an event on a group that moved inside
// the staleness window reads every placement — its dominator's, the
// post-admission re-check, its 8 callees' — off the contexts, like an event on
// a group that never moved. With every directory shard write-locked a single
// Route or Locate would block, so the event completing is proof of none.
// Client hops are off, as in a fleet: the simulator's ACT hop is a message and
// does ask Route.
func TestInWindowEventTakesNoDirectoryLock(t *testing.T) {
	w := newFanWorld(t, 1, 8, transport.NullNetwork{}, 2)
	w.rt.cfg.ChargeClientHops = false
	w.rt.SetRemote(func(cluster.ServerID) bool { return true }, nil) // run the post-admission re-check
	hub, s2 := w.hubs[0], w.rt.Cluster().Servers()[1].ID()
	w.submit(t, hub, "fan")
	w.moveGroup(t, s2, append([]ownership.ID{hub}, w.leaves...)...)
	w.submit(t, hub, "fan") // warm: one probe per context under the new generation
	if _, _, forwarded, _ := w.rt.dir.Route(w.leaves[0]); !forwarded {
		t.Fatal("the forwarding window closed before the measured event")
	}

	d := w.rt.dir
	for i := range d.shards {
		d.shards[i].mu.Lock()
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.rt.Submit(hub, "fan")
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Error("a warmed in-window event with 8 sub-calls went to the directory")
	}
	for i := range d.shards {
		d.shards[i].mu.Unlock()
	}
	if t.Failed() {
		err = <-done
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestEventOverflowsInlineCapacity drives an event past everything the
// pooled event holds inline: 41 contexts held at once, handler frames nested
// 12 deep (inlineFrames is 8), and 32 asynchronous branches racing on one
// child. Everything must behave as it does within capacity, and every
// activation must be released at termination.
func TestEventOverflowsInlineCapacity(t *testing.T) {
	w := newFanWorld(t, 1, 40, transport.NullNetwork{}, 1)
	for round := 1; round <= 2; round++ { // the second round reuses the pooled event
		w.submit(t, w.hubs[0], "fan")
		for _, l := range w.leaves {
			if n := w.submit(t, l, "count"); n != round {
				t.Fatalf("round %d: leaf %v touched %v times", round, l, n)
			}
		}
	}

	const depth = inlineFrames + 4
	chain := make([]ownership.ID, depth)
	for i := range chain {
		var owners []ownership.ID
		if i > 0 {
			owners = chain[i-1 : i]
		}
		id, err := w.rt.CreateContext("Link", owners...)
		if err != nil {
			t.Fatal(err)
		}
		chain[i] = id
	}
	for round := 0; round < 2; round++ {
		if d := w.submit(t, chain[0], "down"); d != depth {
			t.Fatalf("nested call depth = %v; want %d", d, depth)
		}
	}

	const branches = 32
	before := w.submit(t, w.leaves[0], "count").(int)
	w.submit(t, w.hubs[0], "burst", branches)
	if n := w.submit(t, w.leaves[0], "count").(int); n != before+branches {
		t.Fatalf("%d async branches on one child left %d touches; want %d", branches, n-before, branches)
	}

	for _, id := range append(append(chain, w.hubs...), w.leaves...) {
		c, err := w.rt.Context(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.lock.holderCount(); n != 0 || c.lock.queueLen() != 0 {
			t.Fatalf("%v still has %d holders, %d waiters after its events terminated", id, n, c.lock.queueLen())
		}
	}
}

func BenchmarkFanoutSubmit(b *testing.B) {
	for _, bc := range []struct {
		name   string
		hubs   int
		moved  bool // the group was rehosted and its forwarding window is open
		method string
	}{
		{"own-dominator", 1, false, "fan"},
		{"virtual-join", 2, false, "fan"},
		// wide cycles the targets of virtual-join through 512 hubs, so that
		// each event's admission, lock words and child table come from a
		// working set far larger than L1 rather than from lines the
		// previous event left hot.
		{"wide", 512, false, "fan"},
		{"moved-in-window", 1, true, "fan"},
		{"callee-results", 1, false, "tally"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := newFanWorld(b, bc.hubs, 8, transport.NullNetwork{}, 2)
			if bc.moved {
				w.moveGroup(b, w.rt.Cluster().Servers()[1].ID(), append(w.hubs[:1:1], w.leaves...)...)
			}
			args := []any{"msg"}
			for i := 0; i < max(256, bc.hubs); i++ {
				w.submit(b, w.hubs[i%bc.hubs], bc.method, args...) // warm every hub; tally's counts past 255
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.rt.Submit(w.hubs[i%bc.hubs], bc.method, args...); err != nil {
					b.Fatal(err)
				}
			}
			if _, _, forwarded, _ := w.rt.dir.Route(w.hubs[0]); forwarded != bc.moved {
				b.Fatalf("forwarding window open = %v at the end of the run; want %v", forwarded, bc.moved)
			}
		})
	}
}
