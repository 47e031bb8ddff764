package core

import (
	"testing"
	"time"

	"aeon/internal/clock"
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
	if n := len(d.HostedOn(10)); n != 1 {
		t.Fatalf("%d contexts placed; want 1", n)
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
	// Once the staleness window has passed, routing is direct.
	host, _, forwarded, ok = d.routeAt(ownership.ID(1), clock.Now()+clock.Instant(50*time.Millisecond))
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
	closed := clock.Now() + clock.Instant(50*time.Millisecond)
	for _, id := range ids {
		if _, _, forwarded, _ := d.routeAt(id, closed); forwarded {
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

// closeWindows backdates every forwarding-window record so that its window
// has closed, without sleeping through it.
func closeWindows(d *Directory) {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for id, rec := range sh.moved {
			rec.at -= clock.Instant(d.staleFor)
			sh.moved[id] = rec
		}
		sh.mu.Unlock()
	}
}

// TestRouteOfMatchesRoute runs Route(id) and the host-only read off the
// *Context side by side through every directory mutation and requires the same
// host — on the probing read and on the one after it, which a cached word may
// serve — and that the host is cached after every read of a placed context,
// inside its forwarding window like outside it; only a forgotten context
// caches nothing.
func TestRouteOfMatchesRoute(t *testing.T) {
	d := NewDirectory(time.Hour)
	ctxs := map[ownership.ID]*Context{}
	for id := ownership.ID(1); id <= 13; id++ { // enough to span several shards
		ctxs[id] = &Context{id: id}
		d.Place(id, 10)
	}
	group := []ownership.ID{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	steps := []struct {
		name       string
		mutate     func()
		ids        []ownership.ID
		wantHost   cluster.ServerID
		wantFwd    bool // Route's answer; the host-only read does not see it
		wantCached bool
	}{
		{"fresh placement", func() {}, []ownership.ID{1, 2, 13}, 10, false, true},
		{"Move, inside the window", func() { _ = d.Move(1, 20) }, []ownership.ID{1}, 20, true, true},
		{"a bystander re-probes after the Move", func() {}, []ownership.ID{2}, 10, false, true},
		{"Move, window expired", func() { closeWindows(d) }, []ownership.ID{1}, 20, false, true},
		{"MoveBatch, inside the window", func() { _ = d.MoveBatch(group, 30) }, group, 30, true, true},
		{"MoveBatch, window expired", func() { closeWindows(d) }, group, 30, false, true},
		{"Forget", func() { d.Forget(1) }, []ownership.ID{1}, 0, false, false},
		{"Place over a different host", func() { d.Place(2, 40) }, []ownership.ID{2}, 40, false, true},
		{"Place over the same host", func() { d.Place(2, 40) }, []ownership.ID{2}, 40, false, true},
		{"a bystander of both Places", func() {}, []ownership.ID{3}, 30, false, true},
	}
	for _, s := range steps {
		s.mutate()
		for _, id := range s.ids {
			for _, read := range []string{"probing", "repeated"} {
				wantHost, _, forwarded, wantOK := d.Route(id)
				host, ok := d.routeOf(ctxs[id])
				if host != wantHost || ok != wantOK {
					t.Fatalf("%s, %v, %s read: routeOf = %v, %v; Route = %v, %v", s.name, id, read, host, ok, wantHost, wantOK)
				}
				if host != s.wantHost || forwarded != s.wantFwd {
					t.Fatalf("%s, %v, %s read: host %v, forwarded %v; want %v, %v", s.name, id, read, host, forwarded, s.wantHost, s.wantFwd)
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

// TestDirectoryMoveDropsExpiredRecords: a forwarding-window record lives until
// the next move on its shard after the window closed, not for ever — Route's
// second probe is a miss again for a context that moved long ago. Windows are
// closed by backdating their records, not by sleeping.
func TestDirectoryMoveDropsExpiredRecords(t *testing.T) {
	d := NewDirectory(time.Hour)
	ids := []ownership.ID{1} // three shard mates, found by hash
	for id := ownership.ID(2); len(ids) < 3; id++ {
		if shardFor(id) == shardFor(ids[0]) {
			ids = append(ids, id)
		}
	}
	first, second, third := ids[0], ids[1], ids[2]
	for _, id := range ids {
		d.Place(id, 10)
	}
	sh := d.shard(first)
	recorded := func(id ownership.ID) bool {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		_, ok := sh.moved[id]
		return ok
	}
	if err := d.Move(first, 20); err != nil {
		t.Fatal(err)
	}
	if err := d.Move(second, 20); err != nil {
		t.Fatal(err)
	}
	if !recorded(first) || !recorded(second) {
		t.Fatal("Move dropped the record of an open window")
	}
	closeWindows(d)
	if _, _, forwarded, _ := d.Route(first); forwarded {
		t.Fatal("a closed window still forwards")
	}
	if err := d.MoveBatch([]ownership.ID{third}, 20); err != nil {
		t.Fatal(err)
	}
	if recorded(first) || recorded(second) {
		t.Fatal("an expired record survived a MoveBatch on its shard")
	}
	if err := d.Move(first, 30); err != nil {
		t.Fatal(err)
	}
	if !recorded(first) || !recorded(third) {
		t.Fatal("a move dropped the record of an open window")
	}
	closeWindows(d)
	if err := d.Move(second, 30); err != nil {
		t.Fatal(err)
	}
	if recorded(first) || recorded(third) || !recorded(second) {
		t.Fatal("an expired record survived a Move on its shard")
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
	if err := rt.RehostBatch([]ownership.ID{other}, servers[1].ID()); err != nil {
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
