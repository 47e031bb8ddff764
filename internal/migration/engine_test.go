package migration

import (
	"errors"
	"slices"
	"testing"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

type counterState struct {
	N   int
	Pad []byte
}

func (s *counterState) StateBytes() int { return 64 + len(s.Pad) }

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	room := s.MustDeclareClass("Room", func() any { return &counterState{} })
	room.MustDeclareMethod("inc", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*counterState)
		st.N++
		return schema.Int(st.N), nil
	})
	room.MustDeclareMethod("get", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Int(call.State().(*counterState).N), nil
	}, schema.RO())
	item := s.MustDeclareClass("Item", func() any { return &counterState{} })
	item.MustDeclareMethod("inc", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*counterState)
		st.N++
		return schema.Int(st.N), nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	return s
}

type fixture struct {
	rt     *core.Runtime
	store  *cloudstore.Store
	engine *Engine
}

func newFixture(t *testing.T, nServers int) *fixture {
	t.Helper()
	s := testSchema(t)
	cl := cluster.New(transport.NullNetwork{})
	for i := 0; i < nServers; i++ {
		cl.AddServer(cluster.M3Large)
	}
	rt, err := core.New(s, ownership.NewGraph(), cl, core.Config{AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	store := cloudstore.New()
	engine := NewEngine(rt, store, Config{Delta: time.Millisecond})
	return &fixture{rt: rt, store: store, engine: engine}
}

// group creates a Room with n Items on the given server and returns the
// root plus all member ids.
func (f *fixture) group(t *testing.T, srv cluster.ServerID, n int) (ownership.ID, []ownership.ID) {
	t.Helper()
	root, err := f.rt.CreateContextOn(srv, "Room")
	if err != nil {
		t.Fatal(err)
	}
	members := []ownership.ID{root}
	for i := 0; i < n; i++ {
		item, err := f.rt.CreateContext("Item", root)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, item)
	}
	return root, members
}

func (f *fixture) server(t *testing.T, i int) cluster.ServerID {
	t.Helper()
	return f.rt.Cluster().Servers()[i].ID()
}

// TestGroupMigrationOneProtocolRound pins the batching contract: a whole
// group moves with one WAL round and one stop window, and the number of
// cloud-store write operations does not grow with group size.
func TestGroupMigrationOneProtocolRound(t *testing.T) {
	for _, size := range []int{0, 3, 9} {
		f := newFixture(t, 2)
		root, members := f.group(t, f.server(t, 0), size)

		_, w0 := f.store.Stats()
		if err := f.engine.MigrateGroup(root, f.server(t, 1)); err != nil {
			t.Fatal(err)
		}
		_, w1 := f.store.Stats()

		for _, id := range members {
			if srv, _ := f.rt.Directory().Locate(id); srv != f.server(t, 1) {
				t.Fatalf("size %d: member %v on %v; want destination", size, id, srv)
			}
		}
		// 3 journaled steps + 1 journal clear, independent of group size
		// (the commit is a log append, and this runtime has no log).
		if got := w1 - w0; got != 4 {
			t.Fatalf("size %d: %d store writes; want 4 (one protocol round)", size, got)
		}
		if f.engine.Groups.Value() != 1 || f.engine.StopWindows.Value() != 1 {
			t.Fatalf("size %d: groups=%d stopWindows=%d; want 1/1",
				size, f.engine.Groups.Value(), f.engine.StopWindows.Value())
		}
		if int(f.engine.Members.Value()) != size+1 {
			t.Fatalf("size %d: members=%d; want %d", size, f.engine.Members.Value(), size+1)
		}
		if keys, _ := f.store.List("wal/"); len(keys) != 0 {
			t.Fatalf("size %d: wal left behind: %v", size, keys)
		}
	}
}

// TestChildCreatedInStopWindowMigrates pins the re-snapshot: a context
// created under a migrating root after the group was stopped must be adopted
// into the move and land on the destination, not stay orphaned on the
// source.
func TestChildCreatedInStopWindowMigrates(t *testing.T) {
	f := newFixture(t, 2)
	root, _ := f.group(t, f.server(t, 0), 2)
	var late ownership.ID
	f.engine.Hooks.InStopWindow = func(r ownership.ID) {
		// Runs while every member is exclusively held, before membership is
		// sealed into the WAL.
		id, err := f.rt.CreateContext("Item", root)
		if err != nil {
			t.Errorf("create in stop window: %v", err)
			return
		}
		late = id
	}
	if err := f.engine.MigrateGroup(root, f.server(t, 1)); err != nil {
		t.Fatal(err)
	}
	if late == ownership.None {
		t.Fatal("stop-window hook did not run")
	}
	if srv, _ := f.rt.Directory().Locate(late); srv != f.server(t, 1) {
		t.Fatalf("stop-window child on %v; want destination %v (left behind)", srv, f.server(t, 1))
	}
	if int(f.engine.Members.Value()) != 4 {
		t.Fatalf("members moved = %d; want 4 (root + 2 items + adopted child)", f.engine.Members.Value())
	}
	// The adopted child resumes normally.
	if _, err := f.rt.Submit(late, "inc"); err != nil {
		t.Fatal(err)
	}
}

// TestChildCreatedAfterSealMigrates pins the final adoption sweep: a
// context created after membership was sealed (during the δ settle or the
// state transfer) is still swept into the move right before it commits
// instead of being stranded on the source.
func TestChildCreatedAfterSealMigrates(t *testing.T) {
	f := newFixture(t, 2)
	root, _ := f.group(t, f.server(t, 0), 2)
	var straggler ownership.ID
	var moved []ownership.ID
	f.engine.Hooks.AfterStep = func(_ ownership.ID, s Step) error {
		switch {
		case s == StepStopped && straggler == ownership.None:
			// Runs after the sealed membership was journaled, before the δ
			// settle, the transfer and the commit.
			id, err := f.rt.CreateContext("Item", root)
			if err != nil {
				t.Errorf("create after seal: %v", err)
				return nil
			}
			straggler = id
		case s == StepTransferred:
			// The journaled membership is the one the move commits.
			raw, _, err := f.store.Get(walKey(root))
			if err != nil {
				t.Errorf("transferred record: %v", err)
				return nil
			}
			w, err := decodeWAL(raw)
			if err != nil {
				t.Errorf("transferred record: %v", err)
				return nil
			}
			moved = w.Members
		}
		return nil
	}
	if err := f.engine.MigrateGroup(root, f.server(t, 1)); err != nil {
		t.Fatal(err)
	}
	if straggler == ownership.None {
		t.Fatal("post-seal hook did not run")
	}
	if srv, _ := f.rt.Directory().Locate(straggler); srv != f.server(t, 1) {
		t.Fatalf("post-seal child on %v; want destination %v (stranded)", srv, f.server(t, 1))
	}
	// It rode the move itself, not a placement of its own.
	if !slices.Contains(moved, straggler) {
		t.Fatalf("straggler %v not in the committed move %v", straggler, moved)
	}
	if _, err := f.rt.Submit(straggler, "inc"); err != nil {
		t.Fatal(err)
	}
}

// TestGroupSpansRemoteIntermediate pins membership discovery through a
// descendant hosted elsewhere: a co-located grandchild behind a remote
// child still moves with the root.
func TestGroupSpansRemoteIntermediate(t *testing.T) {
	f := newFixture(t, 3)
	root, err := f.rt.CreateContextOn(f.server(t, 0), "Room")
	if err != nil {
		t.Fatal(err)
	}
	mid, err := f.rt.CreateContextOn(f.server(t, 1), "Item", root)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := f.rt.CreateContextOn(f.server(t, 0), "Item", mid)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.engine.MigrateGroup(root, f.server(t, 2)); err != nil {
		t.Fatal(err)
	}
	if srv, _ := f.rt.Directory().Locate(root); srv != f.server(t, 2) {
		t.Fatalf("root on %v; want destination", srv)
	}
	if srv, _ := f.rt.Directory().Locate(leaf); srv != f.server(t, 2) {
		t.Fatalf("leaf on %v; want destination (group must span the remote intermediate)", srv)
	}
	if srv, _ := f.rt.Directory().Locate(mid); srv != f.server(t, 1) {
		t.Fatalf("remote intermediate moved to %v; it was not co-located", srv)
	}
}

// TestOverlappingGroupFailsFast pins disjointness: while a group is in
// flight, migrating any of its members (or a group containing one) fails
// with ErrAlreadyMigrating instead of queueing into the stop window.
func TestOverlappingGroupFailsFast(t *testing.T) {
	f := newFixture(t, 3)
	root, members := f.group(t, f.server(t, 0), 2)

	inStop := make(chan struct{})
	unblock := make(chan struct{})
	f.engine.Hooks.InStopWindow = func(ownership.ID) {
		close(inStop)
		<-unblock
	}
	fut := f.engine.MigrateGroupAsync(root, f.server(t, 1))
	<-inStop

	if err := f.engine.Migrate(members[1], f.server(t, 2)); !errors.Is(err, ErrAlreadyMigrating) {
		t.Fatalf("overlapping member migrate: err = %v; want ErrAlreadyMigrating", err)
	}
	if err := f.engine.MigrateGroup(root, f.server(t, 2)); !errors.Is(err, ErrAlreadyMigrating) {
		t.Fatalf("overlapping group migrate: err = %v; want ErrAlreadyMigrating", err)
	}
	close(unblock)
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	f.engine.Hooks.InStopWindow = nil
	// After completion the claims are gone: a follow-up move works.
	if err := f.engine.MigrateGroup(root, f.server(t, 2)); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateValidation covers the synchronous fast-fail paths of the async
// API.
func TestMigrateValidation(t *testing.T) {
	f := newFixture(t, 2)
	root, _ := f.group(t, f.server(t, 0), 0)

	if err := f.engine.MigrateGroup(root, f.server(t, 0)); err != nil {
		t.Fatalf("same-server move: %v; want nil no-op", err)
	}
	if f.engine.Groups.Value() != 0 {
		t.Fatal("no-op move must not count")
	}
	if err := f.engine.Migrate(ownership.ID(9999), f.server(t, 1)); !errors.Is(err, core.ErrUnknownContext) {
		t.Fatalf("unknown context: %v; want ErrUnknownContext", err)
	}
	if err := f.engine.Migrate(root, cluster.ServerID(99)); !errors.Is(err, cluster.ErrNoSuchServer) {
		t.Fatalf("unknown server: %v; want ErrNoSuchServer", err)
	}
}

// TestGroupMoveIsAtomicInDirectory pins the single-epoch remap at every
// protocol-visible point: throughout the stop window the whole group is
// still on the source, and by the time the transferred step is journaled
// the whole group is already on the destination — there is no protocol
// state in which the group is split across servers (the per-member loop
// kept it split for the entire tail of the loop).
func TestGroupMoveIsAtomicInDirectory(t *testing.T) {
	f := newFixture(t, 2)
	root, members := f.group(t, f.server(t, 0), 5)
	src, dst := f.server(t, 0), f.server(t, 1)

	on := func(want cluster.ServerID) (int, int) {
		hit, miss := 0, 0
		for _, id := range members {
			if srv, ok := f.rt.Directory().Locate(id); ok && srv == want {
				hit++
			} else {
				miss++
			}
		}
		return hit, miss
	}
	f.engine.Hooks.InStopWindow = func(ownership.ID) {
		if hit, miss := on(src); miss != 0 {
			t.Errorf("stop window: %d/%d members already off the source", miss, hit+miss)
		}
	}
	f.engine.Hooks.AfterStep = func(_ ownership.ID, s Step) error {
		if s == StepTransferred {
			// The move committed: the whole group flipped together.
			if hit, miss := on(dst); miss != 0 {
				t.Errorf("after transfer step: %d/%d members not on destination", miss, hit+miss)
			}
		}
		return nil
	}
	if err := f.engine.MigrateGroup(root, dst); err != nil {
		t.Fatal(err)
	}
	if hit, miss := on(dst); miss != 0 {
		t.Fatalf("after move: %d/%d members not on destination", miss, hit+miss)
	}
}

// TestRecoverAtEveryStep crashes the engine after each journaled step and
// verifies a fresh engine over the same store converges the whole group and
// clears the journal only afterwards.
func TestRecoverAtEveryStep(t *testing.T) {
	for _, step := range []Step{StepPrepared, StepStopped, StepTransferred} {
		f := newFixture(t, 2)
		root, members := f.group(t, f.server(t, 0), 3)

		crash := errors.New("crash")
		f.engine.Hooks.AfterStep = func(_ ownership.ID, s Step) error {
			if s == step {
				return crash
			}
			return nil
		}
		if err := f.engine.MigrateGroup(root, f.server(t, 1)); !errors.Is(err, crash) {
			t.Fatalf("step %d: err = %v; want crash", step, err)
		}
		if keys, _ := f.store.List("wal/migration/"); len(keys) != 1 {
			t.Fatalf("step %d: wal keys = %v; want 1", step, keys)
		}

		e2 := NewEngine(f.rt, f.store, Config{Delta: time.Millisecond})
		if err := e2.Recover(0); err != nil {
			t.Fatalf("step %d: recover: %v", step, err)
		}
		for _, id := range members {
			if srv, _ := f.rt.Directory().Locate(id); srv != f.server(t, 1) {
				t.Fatalf("step %d: member %v on %v; want destination", step, id, srv)
			}
		}
		if keys, _ := f.store.List("wal/migration/"); len(keys) != 0 {
			t.Fatalf("step %d: wal not cleared: %v", step, keys)
		}
		if e2.Recovered.Value() != 1 {
			t.Fatalf("step %d: recovered = %d; want 1", step, e2.Recovered.Value())
		}
		// Every member resumes.
		for _, id := range members {
			if _, err := f.rt.Submit(id, "inc"); err != nil {
				t.Fatalf("step %d: post-recovery event on %v: %v", step, id, err)
			}
		}
	}
}
