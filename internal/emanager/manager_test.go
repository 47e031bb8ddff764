package emanager

import (
	"errors"
	"sync"
	"testing"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/migration"
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
	rt    *core.Runtime
	mgr   *Manager
	store *cloudstore.Store
	rooms []ownership.ID
}

func newFixture(t *testing.T, nServers, nRooms int) *fixture {
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
	cfg := DefaultConfig()
	cfg.Delta = time.Millisecond
	cfg.ProtocolWork = 0
	mgr := New(rt, store, cfg)
	f := &fixture{rt: rt, mgr: mgr, store: store}
	servers := cl.Servers()
	for i := 0; i < nRooms; i++ {
		id, err := rt.CreateContextOn(servers[i%len(servers)].ID(), "Room")
		if err != nil {
			t.Fatal(err)
		}
		f.rooms = append(f.rooms, id)
	}
	return f
}

func (f *fixture) otherServer(t *testing.T, not cluster.ServerID) cluster.ServerID {
	t.Helper()
	for _, s := range f.rt.Cluster().Servers() {
		if s.ID() != not {
			return s.ID()
		}
	}
	t.Fatal("no other server")
	return 0
}

func TestMigrateMovesContext(t *testing.T) {
	f := newFixture(t, 2, 1)
	room := f.rooms[0]
	from, _ := f.rt.Directory().Locate(room)
	to := f.otherServer(t, from)

	if _, err := f.rt.Submit(room, "inc"); err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Migrate(room, to); err != nil {
		t.Fatal(err)
	}
	got, _ := f.rt.Directory().Locate(room)
	if got != to {
		t.Fatalf("host = %v; want %v", got, to)
	}
	// State survived and events still run.
	res, err := f.rt.Submit(room, "inc")
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 2 {
		t.Fatalf("count = %v; want 2 (state preserved)", res)
	}
	if f.mgr.Migrations.Value() != 1 {
		t.Fatalf("migrations = %d", f.mgr.Migrations.Value())
	}
	// WAL cleaned up.
	keys, _ := f.store.List("wal/")
	if len(keys) != 0 {
		t.Fatalf("wal keys left: %v", keys)
	}
}

func TestMigrateToSameServerIsNoop(t *testing.T) {
	f := newFixture(t, 2, 1)
	from, _ := f.rt.Directory().Locate(f.rooms[0])
	if err := f.mgr.Migrate(f.rooms[0], from); err != nil {
		t.Fatal(err)
	}
	if f.mgr.Migrations.Value() != 0 {
		t.Fatal("no-op migration should not count")
	}
}

// TestMigrationDoesNotDropEvents hammers a context with events while it
// migrates back and forth; every event must succeed and the final count
// must equal the number of incs (the § 5.2 correctness property).
func TestMigrationDoesNotDropEvents(t *testing.T) {
	f := newFixture(t, 2, 1)
	room := f.rooms[0]
	const incs = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < incs; i++ {
			if _, err := f.rt.Submit(room, "inc"); err != nil {
				t.Errorf("inc during migration: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		from, _ := f.rt.Directory().Locate(room)
		if err := f.mgr.Migrate(room, f.otherServer(t, from)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	res, err := f.rt.Submit(room, "get")
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != incs {
		t.Fatalf("count = %v; want %d", res, incs)
	}
}

func TestMigrateGroupKeepsLocality(t *testing.T) {
	f := newFixture(t, 2, 1)
	room := f.rooms[0]
	from, _ := f.rt.Directory().Locate(room)
	item1, _ := f.rt.CreateContext("Item", room)
	item2, _ := f.rt.CreateContext("Item", room)
	to := f.otherServer(t, from)

	if err := f.mgr.MigrateGroup(room, to); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ownership.ID{room, item1, item2} {
		if srv, _ := f.rt.Directory().Locate(id); srv != to {
			t.Fatalf("%v on %v; want %v (group locality)", id, srv, to)
		}
	}
}

var errSimulatedCrash = errors.New("emanager_test: simulated crash")

// crashAfter aborts the engine's group migration after the given journaled
// step, simulating an eManager crash that leaves the WAL behind.
func crashAfter(mgr *Manager, step migration.Step) {
	mgr.Engine().Hooks.AfterStep = func(_ ownership.ID, s migration.Step) error {
		if s == step {
			return errSimulatedCrash
		}
		return nil
	}
}

// TestRecoverFinishesCrashedMigration crashes a group migration after every
// journaled WAL step; a fresh manager over the same store must converge the
// group onto the destination and only then clear the journal.
func TestRecoverFinishesCrashedMigration(t *testing.T) {
	for _, step := range []migration.Step{migration.StepPrepared, migration.StepStopped, migration.StepTransferred} {
		f := newFixture(t, 2, 1)
		room := f.rooms[0]
		item, err := f.rt.CreateContext("Item", room)
		if err != nil {
			t.Fatal(err)
		}
		from, _ := f.rt.Directory().Locate(room)
		to := f.otherServer(t, from)

		crashAfter(f.mgr, step)
		err = f.mgr.MigrateGroup(room, to)
		if !errors.Is(err, errSimulatedCrash) {
			t.Fatalf("step %d: err = %v; want simulated crash", step, err)
		}
		// A WAL record must be present.
		keys, _ := f.store.List("wal/")
		if len(keys) != 1 {
			t.Fatalf("step %d: wal keys = %v", step, keys)
		}
		// A new manager over the same store finishes the job — the whole
		// group, not just the root.
		mgr2 := New(f.rt, f.store, f.mgr.cfg)
		if err := mgr2.Recover(); err != nil {
			t.Fatalf("step %d: recover: %v", step, err)
		}
		for _, id := range []ownership.ID{room, item} {
			if got, _ := f.rt.Directory().Locate(id); got != to {
				t.Fatalf("step %d: %v on %v; want %v after recovery", step, id, got, to)
			}
		}
		keys, _ = f.store.List("wal/")
		if len(keys) != 0 {
			t.Fatalf("step %d: wal not cleaned: %v", step, keys)
		}
		if _, err := f.rt.Submit(room, "inc"); err != nil {
			t.Fatalf("step %d: post-recovery event: %v", step, err)
		}
	}
}

// TestRecoverSurvivesCrashDuringRecovery pins the journal-ordering fix: the
// WAL record must be deleted only after the re-run migration converges. A
// recovery attempt that itself crashes mid-protocol must leave the journal
// entry behind so the next Recover can finish the job; the old code deleted
// the record first and orphaned the in-flight migration.
func TestRecoverSurvivesCrashDuringRecovery(t *testing.T) {
	f := newFixture(t, 2, 1)
	room := f.rooms[0]
	from, _ := f.rt.Directory().Locate(room)
	to := f.otherServer(t, from)

	// First crash: migration dies after the stop step.
	crashAfter(f.mgr, migration.StepStopped)
	if err := f.mgr.MigrateGroup(room, to); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("err = %v; want simulated crash", err)
	}

	// Second manager crashes again *during recovery*, this time after the
	// stop step of the re-run, before its move commits.
	mgr2 := New(f.rt, f.store, f.mgr.cfg)
	crashAfter(mgr2, migration.StepStopped)
	if err := mgr2.Recover(); !errors.Is(err, errSimulatedCrash) {
		t.Fatalf("recover err = %v; want simulated crash", err)
	}
	keys, _ := f.store.List("wal/")
	if len(keys) != 1 {
		t.Fatalf("wal lost during crashed recovery: %v (the in-flight migration is orphaned)", keys)
	}

	// Third manager completes the move.
	mgr3 := New(f.rt, f.store, f.mgr.cfg)
	if err := mgr3.Recover(); err != nil {
		t.Fatalf("final recover: %v", err)
	}
	if got, _ := f.rt.Directory().Locate(room); got != to {
		t.Fatalf("host = %v; want %v after chained recovery", got, to)
	}
	keys, _ = f.store.List("wal/")
	if len(keys) != 0 {
		t.Fatalf("wal not cleaned: %v", keys)
	}
	if _, err := f.rt.Submit(room, "inc"); err != nil {
		t.Fatalf("post-recovery event: %v", err)
	}
}

func TestDrainAndRemove(t *testing.T) {
	f := newFixture(t, 2, 4)
	victim := f.rt.Cluster().Servers()[0].ID()
	if err := f.mgr.DrainAndRemove(victim); err != nil {
		t.Fatal(err)
	}
	if f.rt.Cluster().Size() != 1 {
		t.Fatalf("size = %d; want 1", f.rt.Cluster().Size())
	}
	for _, room := range f.rooms {
		if srv, _ := f.rt.Directory().Locate(room); srv == victim {
			t.Fatalf("%v still on removed server", room)
		}
		if _, err := f.rt.Submit(room, "inc"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDrainAndRemoveKeepsGroupsWhole pins the MigrateSubtrees drain: a
// drained server's contexts leave as whole placement groups (each room
// lands co-located with its items) instead of the old per-context scatter.
func TestDrainAndRemoveKeepsGroupsWhole(t *testing.T) {
	f := newFixture(t, 3, 0)
	victim := f.rt.Cluster().Servers()[0].ID()
	groups := make(map[ownership.ID][]ownership.ID)
	for r := 0; r < 2; r++ {
		room, err := f.rt.CreateContextOn(victim, "Room")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			item, err := f.rt.CreateContext("Item", room)
			if err != nil {
				t.Fatal(err)
			}
			groups[room] = append(groups[room], item)
		}
	}
	if err := f.mgr.DrainAndRemove(victim); err != nil {
		t.Fatal(err)
	}
	if f.rt.Cluster().Size() != 2 {
		t.Fatalf("size = %d; want 2", f.rt.Cluster().Size())
	}
	for room, items := range groups {
		roomSrv, ok := f.rt.Directory().Locate(room)
		if !ok || roomSrv == victim {
			t.Fatalf("room %v on %v (ok=%v)", room, roomSrv, ok)
		}
		for _, item := range items {
			if srv, _ := f.rt.Directory().Locate(item); srv != roomSrv {
				t.Fatalf("item %v on %v; want %v (group split by drain)", item, srv, roomSrv)
			}
		}
		if _, err := f.rt.Submit(room, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	// Two groups → two group migrations, not six per-context ones.
	if got := f.mgr.Engine().Groups.Value(); got != 2 {
		t.Fatalf("group moves = %d; want 2", got)
	}
	// Destination reservation spreads the drained groups across the
	// survivors instead of stacking both on the momentarily-least-loaded
	// one.
	occupied := 0
	for _, s := range f.rt.Cluster().Servers() {
		if s.Hosted() > 0 {
			occupied++
		}
	}
	if occupied != 2 {
		t.Fatalf("drained groups landed on %d server(s); want spread across 2", occupied)
	}
}

// TestRebalanceDoesNotSplitGroups pins the rebalance fix: with
// MigrateSubtrees, a sweep whose movable list contains both a root and its
// descendants must move the group once — the old loop re-migrated each
// already-moved member individually, splitting the group it had just moved.
func TestRebalanceDoesNotSplitGroups(t *testing.T) {
	f := newFixture(t, 2, 0)
	srv := f.rt.Cluster().Servers()[0].ID()
	room, err := f.rt.CreateContextOn(srv, "Room")
	if err != nil {
		t.Fatal(err)
	}
	items := make([]ownership.ID, 3)
	for i := range items {
		items[i], err = f.rt.CreateContext("Item", room)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := f.mgr.Apply(Rebalance{Server: srv, Fraction: 1.0}); err != nil {
		t.Fatal(err)
	}
	roomSrv, _ := f.rt.Directory().Locate(room)
	if roomSrv == srv {
		t.Fatalf("room still on %v after full rebalance", srv)
	}
	for _, item := range items {
		if got, _ := f.rt.Directory().Locate(item); got != roomSrv {
			t.Fatalf("item %v on %v; want %v (group split by rebalance)", item, got, roomSrv)
		}
	}
	if got := f.mgr.Engine().Groups.Value(); got != 1 {
		t.Fatalf("group moves = %d; want 1 (members re-migrated individually)", got)
	}
}

func TestApplyAddServerAndConstraint(t *testing.T) {
	f := newFixture(t, 1, 0)
	if err := f.mgr.Apply(AddServer{Profile: cluster.M1Small}); err != nil {
		t.Fatal(err)
	}
	if f.rt.Cluster().Size() != 2 {
		t.Fatalf("size = %d; want 2", f.rt.Cluster().Size())
	}
	f.mgr.AddConstraint(MaxServers(2))
	if err := f.mgr.Apply(AddServer{Profile: cluster.M1Small}); !errors.Is(err, ErrVetoed) {
		t.Fatalf("err = %v; want ErrVetoed", err)
	}
}

func TestPinConstraint(t *testing.T) {
	f := newFixture(t, 2, 1)
	room := f.rooms[0]
	from, _ := f.rt.Directory().Locate(room)
	f.mgr.AddConstraint(PinContexts(room))
	err := f.mgr.Apply(MigrateContext{Context: room, From: from})
	if !errors.Is(err, ErrVetoed) {
		t.Fatalf("err = %v; want ErrVetoed", err)
	}
}

func TestServerContentionPolicy(t *testing.T) {
	f := newFixture(t, 2, 0)
	servers := f.rt.Cluster().Servers()
	// Crowd server 0 with 4 rooms; server 1 has none.
	for i := 0; i < 4; i++ {
		if _, err := f.rt.CreateContextOn(servers[0].ID(), "Room"); err != nil {
			t.Fatal(err)
		}
	}
	f.mgr.AddPolicy(ServerContentionPolicy{MaxContexts: 2})
	f.mgr.Evaluate()
	if h := servers[0].Hosted(); h > 2 {
		t.Fatalf("server 0 hosts %d; want ≤2 after contention policy", h)
	}
	if h := servers[1].Hosted(); h == 0 {
		t.Fatal("server 1 should have received contexts")
	}
}

func TestSLAPolicyScalesOut(t *testing.T) {
	f := newFixture(t, 1, 2)
	p := &SLAPolicy{Target: time.Millisecond, Profile: cluster.M1Small, Cooldown: time.Nanosecond}
	actions := p.Decide(Stats{RecentLatency: 5 * time.Millisecond, Servers: f.mgr.CollectStats().Servers})
	if len(actions) == 0 {
		t.Fatal("SLA breach should produce actions")
	}
	if _, ok := actions[0].(AddServer); !ok {
		t.Fatalf("first action = %T; want AddServer", actions[0])
	}
}

func TestSLAPolicyScalesIn(t *testing.T) {
	f := newFixture(t, 3, 0)
	p := &SLAPolicy{Target: 10 * time.Millisecond, Profile: cluster.M1Small,
		MinServers: 2, Cooldown: time.Nanosecond}
	stats := Stats{RecentLatency: time.Millisecond, Servers: f.mgr.CollectStats().Servers}
	actions := p.Decide(stats)
	if len(actions) != 1 {
		t.Fatalf("actions = %v; want one RemoveServer", actions)
	}
	if _, ok := actions[0].(RemoveServer); !ok {
		t.Fatalf("action = %T; want RemoveServer", actions[0])
	}
	// At the floor, no scale-in.
	p2 := &SLAPolicy{Target: 10 * time.Millisecond, Profile: cluster.M1Small,
		MinServers: 3, Cooldown: time.Nanosecond}
	if actions := p2.Decide(stats); len(actions) != 0 {
		t.Fatalf("actions = %v; want none at MinServers floor", actions)
	}
}

func TestResourceUtilizationPolicy(t *testing.T) {
	p := ResourceUtilizationPolicy{Lower: 0.2, Upper: 0.8, Threshold: 0.05}
	stats := Stats{Servers: []ServerStat{
		{ID: 1, Utilization: 0.95, Hosted: 4},
		{ID: 2, Utilization: 0.1, Hosted: 0},
	}}
	actions := p.Decide(stats)
	if len(actions) != 1 {
		t.Fatalf("actions = %v; want one Rebalance", actions)
	}
	rb, ok := actions[0].(Rebalance)
	if !ok || rb.Server != 1 {
		t.Fatalf("action = %#v; want Rebalance{Server:1}", actions[0])
	}
}

// ticks is a clock whose tickers tick only when the test sends on it; its
// timers are real.
type ticks chan time.Time

func (c ticks) AfterFunc(d time.Duration, f func()) clock.Timer { return time.AfterFunc(d, f) }

func (c ticks) Tick(time.Duration) (<-chan time.Time, func()) { return c, func() {} }

// countingPolicy counts its Decide rounds and decides nothing.
type countingPolicy struct{ rounds int }

func (p *countingPolicy) Decide(Stats) []Action {
	p.rounds++
	return nil
}

// TestPolicyLoopStartStop pins that the loop runs one Evaluate round per
// tick, that a second Start adds no second loop, and that Stop waits for the
// round in progress.
func TestPolicyLoopStartStop(t *testing.T) {
	tick := make(ticks)
	t.Cleanup(clock.Use(tick))
	f := newFixture(t, 1, 0)
	p := &countingPolicy{}
	f.mgr.AddPolicy(p)
	f.mgr.Start()
	f.mgr.Start() // idempotent
	const k = 3
	for range k {
		tick <- time.Time{}
	}
	f.mgr.Stop()
	f.mgr.Stop() // idempotent
	if p.rounds != k {
		t.Fatalf("%d ticks ran %d Evaluate rounds, want %d", k, p.rounds, k)
	}
}

func TestSnapshotAndRestore(t *testing.T) {
	f := newFixture(t, 2, 1)
	schema.RegisterWireType(&counterState{})
	room := f.rooms[0]
	item, _ := f.rt.CreateContext("Item", room)
	for i := 0; i < 3; i++ {
		if _, err := f.rt.Submit(room, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.rt.Submit(item, "inc"); err != nil {
		t.Fatal(err)
	}

	key, n, err := f.mgr.Snapshot(room)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("captured %d contexts; want 2", n)
	}

	// Mutate, then restore.
	for i := 0; i < 5; i++ {
		if _, err := f.rt.Submit(room, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	states, err := f.mgr.LoadSnapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Restore(states); err != nil {
		t.Fatal(err)
	}
	res, err := f.rt.Submit(room, "get")
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 3 {
		t.Fatalf("restored count = %v; want 3", res)
	}
}

func TestSnapshotSkipsNilCheckpoint(t *testing.T) {
	// A state whose Checkpointer returns nil is skipped (§ 5.3).
	s := schema.New()
	cls := s.MustDeclareClass("Ephemeral", func() any { return &ephemeralState{} })
	cls.MustDeclareMethod("noop", func(call schema.Call, args []schema.Value) (schema.Value, error) { return schema.Value{}, nil })
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := core.New(s, ownership.NewGraph(), cl, core.Config{})
	defer rt.Close()
	mgr := New(rt, cloudstore.New(), DefaultConfig())
	id, _ := rt.CreateContext("Ephemeral")
	_, n, err := mgr.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("captured %d contexts; want 0 (nil checkpoint skipped)", n)
	}
}

type ephemeralState struct{}

func (*ephemeralState) CheckpointState() any { return nil }

func TestSnapshotIsConsistentUnderLoad(t *testing.T) {
	// Snapshot while events mutate room and item: the snapshot must never
	// observe the room counter ahead of... here both inc'd in one event.
	s := schema.New()
	pair := s.MustDeclareClass("Pair", func() any { return &counterState{} })
	s.MustDeclareClass("Half", func() any { return &counterState{} }).
		MustDeclareMethod("inc", func(call schema.Call, args []schema.Value) (schema.Value, error) {
			call.State().(*counterState).N++
			return schema.Value{}, nil
		})
	pair.MustDeclareMethod("incBoth", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		halves, _ := call.Children("Half")
		for _, h := range halves {
			if _, err := call.Sync(h, "inc"); err != nil {
				return schema.Value{}, err
			}
		}
		return schema.Value{}, nil
	}, schema.MayCall("Half", "inc"))
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := core.New(s, ownership.NewGraph(), cl, core.Config{AcquireTimeout: 10 * time.Second})
	defer rt.Close()
	schema.RegisterWireType(&counterState{})
	mgr := New(rt, cloudstore.New(), DefaultConfig())

	pairID, _ := rt.CreateContext("Pair")
	h1, _ := rt.CreateContext("Half", pairID)
	h2, _ := rt.CreateContext("Half", pairID)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := rt.Submit(pairID, "incBoth"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 10; i++ {
		key, _, err := mgr.Snapshot(pairID)
		if err != nil {
			t.Fatal(err)
		}
		states, err := mgr.LoadSnapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		a := states[h1].(*counterState).N
		b := states[h2].(*counterState).N
		if a != b {
			t.Fatalf("inconsistent snapshot: halves %d vs %d", a, b)
		}
	}
	close(stop)
	wg.Wait()
}
