package core

import (
	"testing"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
)

func TestDirectoryPlaceLocate(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Place(ownership.ID(1), 10)
	srv, ok := d.Locate(ownership.ID(1))
	if !ok || srv != 10 {
		t.Fatalf("Locate = %v, %v", srv, ok)
	}
	if _, ok := d.Locate(ownership.ID(2)); ok {
		t.Fatal("unknown context should not locate")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestDirectoryMoveOpensForwardingWindow(t *testing.T) {
	d := NewDirectory(50 * time.Millisecond)
	d.Place(ownership.ID(1), 10)
	if err := d.Move(ownership.ID(1), 20); err != nil {
		t.Fatal(err)
	}
	host, via, forwarded, ok := d.Route(ownership.ID(1))
	if !ok || host != 20 || !forwarded || via != 10 {
		t.Fatalf("Route = host %v via %v fwd %v ok %v", host, via, forwarded, ok)
	}
	// After the staleness window, routing is direct.
	time.Sleep(60 * time.Millisecond)
	host, _, forwarded, ok = d.Route(ownership.ID(1))
	if !ok || host != 20 || forwarded {
		t.Fatalf("post-window Route = host %v fwd %v", host, forwarded)
	}
}

func TestDirectoryMoveUnknown(t *testing.T) {
	d := NewDirectory(time.Second)
	if err := d.Move(ownership.ID(9), 20); err == nil {
		t.Fatal("moving an unknown context must fail")
	}
}

func TestDirectoryMoveBatchSingleEpoch(t *testing.T) {
	d := NewDirectory(50 * time.Millisecond)
	// Enough members to span several shards.
	ids := make([]ownership.ID, 12)
	for i := range ids {
		ids[i] = ownership.ID(i + 1)
		d.Place(ids[i], 10)
	}
	if err := d.MoveBatch(ids, 20); err != nil {
		t.Fatal(err)
	}
	// Every member forwards through the old host.
	for _, id := range ids {
		host, via, forwarded, ok := d.Route(id)
		if !ok || host != 20 || !forwarded || via != 10 {
			t.Fatalf("%v: Route = host %v via %v fwd %v ok %v", id, host, via, forwarded, ok)
		}
	}
	// One staleness epoch: the whole group's forwarding windows close
	// together.
	time.Sleep(60 * time.Millisecond)
	for _, id := range ids {
		if _, _, forwarded, _ := d.Route(id); forwarded {
			t.Fatalf("%v still forwarded after the shared window", id)
		}
	}
}

func TestDirectoryMoveBatchAllOrNothing(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Place(ownership.ID(1), 10)
	d.Place(ownership.ID(2), 10)
	err := d.MoveBatch([]ownership.ID{1, 99, 2}, 20)
	if err == nil {
		t.Fatal("batch with an unknown member must fail")
	}
	for _, id := range []ownership.ID{1, 2} {
		if srv, _ := d.Locate(id); srv != 10 {
			t.Fatalf("%v moved to %v despite failed batch", id, srv)
		}
	}
}

func TestDirectoryMoveBatchNoopMemberSkipsWindow(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Place(ownership.ID(1), 10)
	d.Place(ownership.ID(2), 20) // already on the destination
	if err := d.MoveBatch([]ownership.ID{1, 2}, 20); err != nil {
		t.Fatal(err)
	}
	if _, _, forwarded, _ := d.Route(ownership.ID(2)); forwarded {
		t.Fatal("member already on the destination must not open a forwarding window")
	}
	if _, _, forwarded, _ := d.Route(ownership.ID(1)); !forwarded {
		t.Fatal("moved member must forward")
	}
}

func TestDirectoryHostedOnAndForget(t *testing.T) {
	d := NewDirectory(time.Second)
	d.Place(ownership.ID(1), 10)
	d.Place(ownership.ID(2), 10)
	d.Place(ownership.ID(3), 20)
	on10 := d.HostedOn(10)
	if len(on10) != 2 {
		t.Fatalf("HostedOn(10) = %v", on10)
	}
	d.Forget(ownership.ID(1))
	if len(d.HostedOn(10)) != 1 {
		t.Fatal("Forget should remove the context")
	}
	if _, ok := d.Locate(ownership.ID(1)); ok {
		t.Fatal("forgotten context should not locate")
	}
}

// placementCached reports whether c carries an answer routeOf would return
// without probing the directory.
func placementCached(d *Directory, c *Context) bool {
	w := c.placed.Load()
	return w&placedHostMask != 0 && w&^placedHostMask == d.gen.Load()<<placedHostBits
}

// TestRouteOfMatchesRoute runs Route(id) and the read off the *Context side by
// side through every directory mutation and requires identical answers — on
// the probing read and on the one after it, which a cached word may serve —
// and that an answer is cached exactly when it may be: never inside a
// forwarding window, never for a forgotten context.
func TestRouteOfMatchesRoute(t *testing.T) {
	d := NewDirectory(20 * time.Millisecond)
	ctxs := map[ownership.ID]*Context{}
	for id := ownership.ID(1); id <= 13; id++ { // enough to span several shards
		ctxs[id] = &Context{id: id}
		d.Place(id, 10)
	}
	group := []ownership.ID{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	windowsClosed := func(ids ...ownership.ID) {
		for _, id := range ids {
			waitFor(t, "the forwarding window to close", func() bool {
				_, _, forwarded, _ := d.Route(id)
				return !forwarded
			})
		}
	}
	type answer struct {
		host, via     cluster.ServerID
		forwarded, ok bool
	}
	steps := []struct {
		name       string
		mutate     func()
		ids        []ownership.ID
		want       answer
		wantCached bool
	}{
		{"fresh placement", func() {}, []ownership.ID{1, 2, 13}, answer{10, 0, false, true}, true},
		{"Move, inside the window", func() { _ = d.Move(1, 20) }, []ownership.ID{1}, answer{20, 10, true, true}, false},
		{"a bystander re-probes after the Move", func() {}, []ownership.ID{2}, answer{10, 0, false, true}, true},
		{"Move, window expired", func() { windowsClosed(1) }, []ownership.ID{1}, answer{20, 0, false, true}, true},
		{"MoveBatch, inside the window", func() { _ = d.MoveBatch(group, 30) }, group, answer{30, 10, true, true}, false},
		{"MoveBatch, window expired", func() { windowsClosed(group...) }, group, answer{30, 0, false, true}, true},
		{"Forget", func() { d.Forget(1) }, []ownership.ID{1}, answer{}, false},
		{"Place over a different host", func() { d.Place(2, 40) }, []ownership.ID{2}, answer{40, 0, false, true}, true},
		{"Place over the same host", func() { d.Place(2, 40) }, []ownership.ID{2}, answer{40, 0, false, true}, true},
		{"a bystander of both Places", func() {}, []ownership.ID{3}, answer{30, 0, false, true}, true},
	}
	for _, s := range steps {
		s.mutate()
		for _, id := range s.ids {
			for _, read := range []string{"probing", "repeated"} {
				var want, got answer
				want.host, want.via, want.forwarded, want.ok = d.Route(id)
				got.host, got.via, got.forwarded, got.ok = d.routeOf(ctxs[id])
				if got != want {
					t.Fatalf("%s, %v, %s read: routeOf = %+v, Route = %+v", s.name, id, read, got, want)
				}
				if got != s.want {
					t.Fatalf("%s, %v, %s read: %+v; want %+v", s.name, id, read, got, s.want)
				}
				if cached := placementCached(d, ctxs[id]); cached != s.wantCached {
					t.Fatalf("%s, %v, after the %s read: cached = %v; want %v", s.name, id, read, cached, s.wantCached)
				}
			}
		}
	}
	// Only a Place that changes an existing answer moves the generation.
	gen := d.gen.Load()
	d.Place(2, 40)
	d.Place(99, 10)
	if d.gen.Load() != gen {
		t.Fatal("a Place that changes no existing answer moved the generation")
	}
}

// TestPlacementCacheSurvivesCreatesNotMoves: creating contexts — TPC-C does it
// once per new-order transaction — must leave every cached placement valid,
// and a single Move of any context must invalidate all of them.
func TestPlacementCacheSurvivesCreatesNotMoves(t *testing.T) {
	rt := newTestRuntime(t, 2)
	servers := rt.Cluster().Servers()
	room, _ := rt.CreateContextOn(servers[0].ID(), "Room")
	other, _ := rt.CreateContextOn(servers[0].ID(), "Room")
	if _, err := rt.Submit(room, "noop"); err != nil {
		t.Fatal(err)
	}
	c, _ := rt.Context(room)
	if !placementCached(rt.dir, c) {
		t.Fatal("an event's dominator route left nothing cached on the context")
	}
	gen := rt.dir.gen.Load()
	for i := 0; i < 1000; i++ {
		if _, err := rt.CreateContext("Item", room); err != nil {
			t.Fatal(err)
		}
	}
	if !placementCached(rt.dir, c) || rt.dir.gen.Load() != gen {
		t.Fatalf("1000 CreateContext calls moved the generation %d → %d", gen, rt.dir.gen.Load())
	}
	if err := rt.Rehost(other, servers[1].ID()); err != nil {
		t.Fatal(err)
	}
	if placementCached(rt.dir, c) {
		t.Fatal("a cached placement survived the Move of another context")
	}
	if _, err := rt.Submit(room, "noop"); err != nil {
		t.Fatal(err)
	}
	if !placementCached(rt.dir, c) {
		t.Fatal("the re-probe after the Move was not cached")
	}
}
