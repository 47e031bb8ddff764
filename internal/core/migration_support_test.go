package core

import (
	"errors"
	"testing"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// TestRehostBatchMovesGroupAndCounts checks the bulk runtime remap: one
// directory update for the whole group plus correct hosted-counter
// accounting, with members already on the destination counted as no-ops.
func TestRehostBatchMovesGroupAndCounts(t *testing.T) {
	rt := newTestRuntime(t, 2)
	servers := rt.Cluster().Servers()
	s1, s2 := servers[0], servers[1]

	room, err := rt.CreateContextOn(s1.ID(), "Room")
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := rt.CreateContextOn(s1.ID(), "Item", room)
	i2, _ := rt.CreateContextOn(s1.ID(), "Item", room)
	already, _ := rt.CreateContextOn(s2.ID(), "Item", room)

	if got := s1.Hosted(); got != 3 {
		t.Fatalf("s1 hosted = %d; want 3", got)
	}
	group := []ownership.ID{room, i1, i2, already}
	if err := rt.RehostBatch(group, s2.ID()); err != nil {
		t.Fatal(err)
	}
	for _, id := range group {
		if srv, _ := rt.Directory().Locate(id); srv != s2.ID() {
			t.Fatalf("%v on %v; want %v", id, srv, s2.ID())
		}
	}
	if got := s1.Hosted(); got != 0 {
		t.Fatalf("s1 hosted = %d; want 0 after batch", got)
	}
	if got := s2.Hosted(); got != 4 {
		t.Fatalf("s2 hosted = %d; want 4 after batch (no double count for %v)", got, already)
	}

	if err := rt.RehostBatch([]ownership.ID{room, ownership.ID(9999)}, s1.ID()); err == nil {
		t.Fatal("batch with unknown member must fail")
	}
	if srv, _ := rt.Directory().Locate(room); srv != s2.ID() {
		t.Fatal("failed batch must not move members")
	}
}

// TestLockGroupForMigrationStopsWholeGroup checks the compound stop window:
// while held, events on every member queue; on release they all resume.
func TestLockGroupForMigrationStopsWholeGroup(t *testing.T) {
	rt := newTestRuntime(t, 1)
	srv := rt.Cluster().Servers()[0].ID()
	room, _ := rt.CreateContextOn(srv, "Room")
	i1, _ := rt.CreateContextOn(srv, "Item", room)
	i2, _ := rt.CreateContextOn(srv, "Item", room)

	release, err := rt.LockGroupForMigration([]ownership.ID{room, i1, i2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for _, id := range []ownership.ID{i1, i2} {
		go func(id ownership.ID) {
			_, err := rt.Submit(id, "add", 1)
			done <- err
		}(id)
	}
	select {
	case <-done:
		t.Fatal("event ran inside the group stop window")
	case <-time.After(30 * time.Millisecond):
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("post-release event: %v", err)
		}
	}
	release() // idempotent
}

// TestLockGroupForMigrationTimeoutReleasesAll checks preemption: when a
// member cannot be acquired in time, the whole attempt unwinds and nothing
// stays held.
func TestLockGroupForMigrationTimeoutReleasesAll(t *testing.T) {
	rt := newTestRuntime(t, 1)
	srv := rt.Cluster().Servers()[0].ID()
	room, _ := rt.CreateContextOn(srv, "Room")
	item, _ := rt.CreateContextOn(srv, "Item", room)

	// An outstanding hold on the item makes the group stop time out.
	hold, err := rt.LockForMigration(item)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.LockGroupForMigration([]ownership.ID{room, item}, 20*time.Millisecond)
	if !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("err = %v; want ErrAcquireTimeout", err)
	}
	// The root must have been released by the unwind: an event runs now.
	evDone := make(chan error, 1)
	go func() {
		_, err := rt.Submit(room, "noop")
		evDone <- err
	}()
	select {
	case err := <-evDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("root still held after failed group stop")
	}
	hold()
	// With the straggler gone, the group stop succeeds.
	release, err := rt.LockGroupForMigration([]ownership.ID{room, item}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	release()
}

// TestParkedEventFollowsRehostedGroup pins executeEvent's post-admission
// locality re-check, on which the directory generation's ordering argument
// rests. In multi-process mode an event parks behind a group's stop window
// with its dominator's placement cached; the group is rehosted to a server
// another process embodies — the generation moves under the directory locks,
// before the release that admits the event — so once admitted the event must
// miss its cached word, see the new host and come back local == false having
// run nothing and holding nothing.
func TestParkedEventFollowsRehostedGroup(t *testing.T) {
	rt := newTestRuntime(t, 2)
	here, away := rt.Cluster().Servers()[0].ID(), rt.Cluster().Servers()[1].ID()
	room, _ := rt.CreateContextOn(here, "Room")
	item, _ := rt.CreateContextOn(here, "Item", room)
	rt.SetRemote(func(s cluster.ServerID) bool { return s == here },
		func(cluster.ServerID, ownership.ID, string, []schema.Value) (schema.Value, error) {
			t.Error("Frame.Run forwarded; it only reports")
			return schema.Value{}, nil
		})
	if _, err := rt.Submit(item, "add", 5); err != nil { // caches the placement
		t.Fatal(err)
	}
	ic, _ := rt.Context(item)
	if !placementCached(rt.dir, ic) {
		t.Fatal("the warm-up event left no cached placement to go stale")
	}
	samples, waits := rt.Latency.Count(), rt.ActivationWaits.Value()

	group := []ownership.ID{room, item}
	release, err := rt.LockGroupForMigration(group, 0)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res   schema.Value
		host  cluster.ServerID
		local bool
		err   error
		ran   int
	}
	done := make(chan outcome, 1)
	go func() {
		f := rt.BeginFrame()
		var o outcome
		o.res, o.host, o.local, o.err = f.Run(item, "add", []schema.Value{schema.Int(1)})
		o.ran = f.Ran()
		done <- o
	}()
	waitFor(t, "the event to park behind the stop window", func() bool { return ic.lock.queueLen() == 1 })
	if err := rt.RehostBatch(group, away); err != nil {
		t.Fatal(err)
	}
	release()
	o := <-done
	if o.err != nil || o.local || o.host != away || o.res.Any() != nil || o.ran != 0 {
		t.Fatalf("parked event after the rehost: %+v; want local=false on host %v, nothing run", o, away)
	}
	if got := ic.State().(*itemState).Gold; got != 5 {
		t.Fatalf("item gold = %d; the event ran against state that had moved away", got)
	}
	for _, id := range group {
		c, _ := rt.Context(id)
		if h, q := c.lock.holderCount(), c.lock.queueLen(); h != 0 || q != 0 {
			t.Fatalf("%v: holders=%d queue=%d after the event came back", id, h, q)
		}
	}
	if rt.Latency.Count() != samples {
		t.Fatal("an event that did not run left a latency sample")
	}
	if got := rt.ActivationWaits.Value() - waits; got != 1 {
		t.Fatalf("activation waits counted = %d; want the one park behind the stop window", got)
	}
}
