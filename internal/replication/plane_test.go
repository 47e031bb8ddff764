package replication

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/transport"
)

// newTestRuntime builds one deterministic runtime replica: `servers` servers
// and one Root context per server, identical on every call — the same
// startup-determinism contract multi-process deployments rely on.
func newTestRuntime(t *testing.T, servers int) (*core.Runtime, []ownership.ID) {
	t.Helper()
	cl := cluster.New(transport.NewSim(transport.SimConfig{}))
	for i := 0; i < servers; i++ {
		cl.AddServer(cluster.M3Large)
	}
	s := testSchema()
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ChargeClientHops = false
	rt, err := core.New(s, ownership.NewGraph(), cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	var roots []ownership.ID
	for _, srv := range rt.Cluster().Servers() {
		id, err := rt.CreateContextOn(srv.ID(), "Root")
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, id)
	}
	return rt, roots
}

// fakeClock stands in for real time in the tests that steer the tailer or the
// lag wait: its ticker ticks only when the test sends on ticks, and a timer
// armed on it is handed to the test on timers and fires only when the test
// fires it, on the test's goroutine.
type fakeClock struct {
	ticks  chan time.Time
	timers chan *fakeTimer
}

type fakeTimer struct {
	f    func()
	done atomic.Bool // fired or stopped
}

func (f *fakeTimer) Stop() bool { return f.done.CompareAndSwap(false, true) }

// fire runs the timer unless it already fired or was stopped.
func (f *fakeTimer) fire() bool {
	if !f.done.CompareAndSwap(false, true) {
		return false
	}
	f.f()
	return true
}

// useFakeClock installs a fakeClock until the test ends.
func useFakeClock(t *testing.T) *fakeClock {
	// More timers than a test arms, so AfterFunc never blocks.
	c := &fakeClock{ticks: make(chan time.Time), timers: make(chan *fakeTimer, 64)}
	t.Cleanup(clock.Use(c))
	return c
}

func (c *fakeClock) AfterFunc(_ time.Duration, f func()) clock.Timer {
	ft := &fakeTimer{f: f}
	c.timers <- ft
	return ft
}

func (c *fakeClock) Tick(time.Duration) (<-chan time.Time, func()) { return c.ticks, func() {} }

// fireNext fires the next timer armed on c that is still live.
func (c *fakeClock) fireNext() {
	for !(<-c.timers).fire() {
	}
}

// newTestPlane attaches a started plane to rt over store.
func newTestPlane(t *testing.T, rt *core.Runtime, store cloudstore.API, origin transport.NodeID) *Plane {
	t.Helper()
	p := New(rt, store, Config{Origin: origin})
	rt.SetReplicator(p)
	if err := p.Start(); err != nil {
		t.Fatalf("plane %v start: %v", origin, err)
	}
	t.Cleanup(p.Close)
	return p
}

// graphFingerprint renders the full structure of a graph (IDs, classes,
// sorted child sets) for replica-equality assertions.
func graphFingerprint(t *testing.T, g *ownership.Graph) string {
	t.Helper()
	view := g.Snapshot()
	roots := view.Roots()
	seen := map[ownership.ID]bool{}
	var all []ownership.ID
	var walk func(id ownership.ID)
	walk = func(id ownership.ID) {
		if seen[id] {
			return
		}
		seen[id] = true
		all = append(all, id)
		children, err := view.Children(id)
		if err != nil {
			t.Fatalf("children %v: %v", id, err)
		}
		for _, c := range children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := ""
	for _, id := range all {
		class, _ := view.Class(id)
		children, _ := view.Children(id)
		children = slices.Clone(children) // the snapshot's own slice
		slices.Sort(children)
		out += fmt.Sprintf("%v:%s:%v\n", id, class, children)
	}
	return out
}

func TestPlaneSequencesCreateThroughLog(t *testing.T) {
	rt, roots := newTestRuntime(t, 2)
	store := cloudstore.New()
	p := newTestPlane(t, rt, store, 1)

	// The runtime redirect: CreateContextOn goes through the log.
	id, err := rt.CreateContextOn(1, "Leaf", roots[0])
	if err != nil {
		t.Fatalf("replicated create: %v", err)
	}
	if !rt.Graph().Contains(id) {
		t.Fatalf("created %v not applied to local replica", id)
	}
	if srv, ok := rt.Directory().Locate(id); !ok || srv != 1 {
		t.Fatalf("created %v placed on %v, want 1", id, srv)
	}
	if p.Applied() != 1 || p.Appends() != 1 {
		t.Fatalf("applied=%d appends=%d, want 1/1", p.Applied(), p.Appends())
	}
	// The record is durable and carries the mutation.
	raw, _, err := store.Get(recKey(1))
	if err != nil {
		t.Fatalf("record 1 not durable: %v", err)
	}
	rec, err := decodeRecord(1, raw)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 1 || len(rec.Muts) != 1 || rec.Muts[0].Op != OpNewContext {
		t.Fatalf("unexpected record: %+v", rec)
	}
	// Destroy goes through the log too.
	if err := rt.DestroyContext(id); err != nil {
		t.Fatalf("replicated destroy: %v", err)
	}
	if rt.Graph().Contains(id) {
		t.Fatalf("destroyed %v still in replica", id)
	}
	if p.Applied() != 2 {
		t.Fatalf("applied=%d after destroy, want 2", p.Applied())
	}
}

func TestTwoReplicasAssignIdenticalIDs(t *testing.T) {
	store := cloudstore.New()
	rtA, rootsA := newTestRuntime(t, 2)
	rtB, _ := newTestRuntime(t, 2)
	pA := newTestPlane(t, rtA, store, 1)
	pB := newTestPlane(t, rtB, store, 2)

	// Interleave creations from both nodes; sequence order — not local call
	// order — must assign IDs, and both replicas must converge on the same
	// structure.
	var ids []ownership.ID
	for i := 0; i < 6; i++ {
		var id ownership.ID
		var err error
		if i%2 == 0 {
			id, err = rtA.CreateContextOn(1, "Leaf", rootsA[0])
		} else {
			id, err = rtB.CreateContextOn(2, "Leaf", rootsA[1])
		}
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("IDs not strictly increasing in log order: %v", ids)
		}
	}
	if err := pA.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := pB.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if fA, fB := graphFingerprint(t, rtA.Graph()), graphFingerprint(t, rtB.Graph()); fA != fB {
		t.Fatalf("replicas diverged:\nA:\n%s\nB:\n%s", fA, fB)
	}
	// Placements replicate too: node B can locate a context node A created.
	for _, id := range ids {
		sA, okA := rtA.Directory().Locate(id)
		sB, okB := rtB.Directory().Locate(id)
		if !okA || !okB || sA != sB {
			t.Fatalf("placement of %v diverged: A=%v,%v B=%v,%v", id, sA, okA, sB, okB)
		}
	}
}

func TestConcurrentAppendersConvergeUnderContention(t *testing.T) {
	store := cloudstore.New()
	rtA, rootsA := newTestRuntime(t, 2)
	rtB, _ := newTestRuntime(t, 2)
	pA := newTestPlane(t, rtA, store, 1)
	pB := newTestPlane(t, rtB, store, 2)

	const workers, each = 4, 8
	var wg sync.WaitGroup
	idsCh := make(chan ownership.ID, 2*workers*each)
	for w := 0; w < workers; w++ {
		for _, env := range []struct {
			rt   *core.Runtime
			srv  cluster.ServerID
			root ownership.ID
		}{{rtA, 1, rootsA[0]}, {rtB, 2, rootsA[1]}} {
			wg.Add(1)
			go func(rt *core.Runtime, srv cluster.ServerID, root ownership.ID) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					id, err := rt.CreateContextOn(srv, "Leaf", root)
					if err != nil {
						t.Errorf("create: %v", err)
						return
					}
					idsCh <- id
				}
			}(env.rt, env.srv, env.root)
		}
	}
	wg.Wait()
	close(idsCh)
	seen := map[ownership.ID]bool{}
	n := 0
	for id := range idsCh {
		if seen[id] {
			t.Fatalf("duplicate ID %v assigned", id)
		}
		seen[id] = true
		n++
	}
	if n != 2*workers*each {
		t.Fatalf("got %d IDs, want %d", n, 2*workers*each)
	}
	if err := pA.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if err := pB.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if fA, fB := graphFingerprint(t, rtA.Graph()), graphFingerprint(t, rtB.Graph()); fA != fB {
		t.Fatalf("replicas diverged under contention:\nA:\n%s\nB:\n%s", fA, fB)
	}
	// Batching may coalesce, but every record must have landed exactly once:
	// total appended records == applied sequence on both replicas.
	if pA.Applied() != pB.Applied() {
		t.Fatalf("applied diverged: %d vs %d", pA.Applied(), pB.Applied())
	}
	if pA.Appends()+pB.Appends() != pA.Applied() {
		t.Fatalf("appends %d+%d != applied %d (lost or duplicated record)",
			pA.Appends(), pB.Appends(), pA.Applied())
	}
}

func TestApplyIdempotentUnderDuplicateAndStalePokes(t *testing.T) {
	clk := useFakeClock(t)
	store := cloudstore.New()
	rt, roots := newTestRuntime(t, 2)
	p := newTestPlane(t, rt, store, 1)

	leaf, err := rt.CreateContextOn(1, "Leaf", roots[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CommitMove([]ownership.ID{leaf}, 2); err != nil {
		t.Fatal(err)
	}
	applies := p.Applies()
	lenBefore := rt.Graph().Len()
	hosted := func() [2]int {
		s1, _ := rt.Cluster().Server(1)
		s2, _ := rt.Cluster().Server(2)
		return [2]int{s1.Hosted(), s2.Hosted()}
	}
	hostedBefore := hosted()
	// Duplicate, stale, and future pokes must never re-apply a record.
	for i := 0; i < 10; i++ {
		p.Poke(1)
		p.Poke(0)
		p.Poke(99)
	}
	if err := p.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// Let the poked tailer passes run: a tick is taken only once the tailer
	// is back in its select, and only a pass drains the wake channel.
	clk.ticks <- time.Time{}
	for len(p.wake) > 0 {
		clk.ticks <- time.Time{}
	}
	clk.ticks <- time.Time{}
	if p.Applies() != applies {
		t.Fatalf("pokes re-applied records: %d → %d", applies, p.Applies())
	}
	if rt.Graph().Len() != lenBefore {
		t.Fatalf("graph changed under duplicate pokes: %d → %d", lenBefore, rt.Graph().Len())
	}
	if srv, _ := rt.Directory().Locate(leaf); srv != 2 || hosted() != hostedBefore {
		t.Fatalf("move re-applied under duplicate pokes: leaf on %v, hosted %v → %v", srv, hostedBefore, hosted())
	}
}

func TestDeterministicApplyErrors(t *testing.T) {
	store := cloudstore.New()
	rtA, rootsA := newTestRuntime(t, 2)
	rtB, _ := newTestRuntime(t, 2)
	pA := newTestPlane(t, rtA, store, 1)
	pB := newTestPlane(t, rtB, store, 2)

	// A cycle-creating edge fails, deterministically, on every replica —
	// and the failed record still advances the log.
	child, err := rtA.CreateContextOn(1, "Leaf", rootsA[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pA.AddEdge(child, rootsA[0]); err == nil {
		t.Fatal("cycle edge unexpectedly applied")
	}
	if err := pB.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if pB.Applied() != pA.Applied() {
		t.Fatalf("failed mutation desynced replicas: %d vs %d", pB.Applied(), pA.Applied())
	}
	if fA, fB := graphFingerprint(t, rtA.Graph()), graphFingerprint(t, rtB.Graph()); fA != fB {
		t.Fatalf("replicas diverged after failed apply:\nA:\n%s\nB:\n%s", fA, fB)
	}
}

func TestServerMembershipReplicates(t *testing.T) {
	store := cloudstore.New()
	rtA, _ := newTestRuntime(t, 2)
	rtB, _ := newTestRuntime(t, 2)
	pA := newTestPlane(t, rtA, store, 1)
	pB := newTestPlane(t, rtB, store, 2)

	srv, err := pA.AddServer(cluster.M1Small)
	if err != nil {
		t.Fatalf("replicated add-server: %v", err)
	}
	if err := pB.CatchUp(); err != nil {
		t.Fatal(err)
	}
	sB, ok := rtB.Cluster().Server(srv)
	if !ok {
		t.Fatalf("server %v not applied on replica B", srv)
	}
	if sB.Profile().Name != cluster.M1Small.Name {
		t.Fatalf("replica B applied profile %q", sB.Profile().Name)
	}
	// Scale-in is forced on apply: replica hosted counters cannot veto.
	if err := pB.RemoveServer(srv); err != nil {
		t.Fatalf("replicated remove-server: %v", err)
	}
	if err := pA.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if _, ok := rtA.Cluster().Server(srv); ok {
		t.Fatalf("server %v still in replica A after replicated removal", srv)
	}
}

func TestWaitForReachesAndTimesOut(t *testing.T) {
	// The tailers never tick: B only advances when kicked, which is what
	// WaitFor does.
	clk := useFakeClock(t)
	store := cloudstore.New()
	rtA, rootsA := newTestRuntime(t, 2)
	rtB, _ := newTestRuntime(t, 2)
	pA := newTestPlane(t, rtA, store, 1)
	pB := newTestPlane(t, rtB, store, 2)

	if _, err := rtA.CreateContextOn(1, "Leaf", rootsA[0]); err != nil {
		t.Fatal(err)
	}
	if err := pB.WaitFor(pA.Applied(), time.Hour); err != nil {
		t.Fatalf("WaitFor a durable sequence: %v", err)
	}
	// A sequence beyond the durable tail times out typed, once its timer
	// fires, and not before.
	waited := make(chan error, 1)
	go func() { waited <- pB.WaitFor(pA.Applied()+5, time.Hour) }()
	clk.fireNext()
	if err := <-waited; !errors.Is(err, ErrReplicaLagging) {
		t.Fatalf("WaitFor beyond tail = %v, want ErrReplicaLagging", err)
	}
}

// lostAckStore commits one armed CAS on the inner store but reports a
// transport-style failure to the caller — the mesh-backed store's
// ambiguous-outcome mode.
type lostAckStore struct {
	cloudstore.API
	mu    sync.Mutex
	armed int
}

var errSimulatedLostAck = errors.New("simulated lost CAS acknowledgment")

func (s *lostAckStore) CAS(key string, expect uint64, value []byte) (uint64, error) {
	v, err := s.API.CAS(key, expect, value)
	s.mu.Lock()
	drop := err == nil && s.armed > 0
	if drop {
		s.armed--
	}
	s.mu.Unlock()
	if drop {
		return 0, errSimulatedLostAck
	}
	return v, err
}

// TestAppendSurvivesLostCASAck pins the append commit probe: when the CAS
// lands on the store but its acknowledgment is lost, the appender must
// discover its own record at the claimed sequence and report success — not
// fail a mutation the whole fleet is about to apply (which would invite a
// duplicating retry).
func TestAppendSurvivesLostCASAck(t *testing.T) {
	inner := cloudstore.New()
	store := &lostAckStore{API: inner}
	rt, roots := newTestRuntime(t, 1)
	p := newTestPlane(t, rt, store, 1)

	store.mu.Lock()
	store.armed = 1
	store.mu.Unlock()
	id, err := rt.CreateContextOn(1, "Leaf", roots[0])
	if err != nil {
		t.Fatalf("create with lost CAS ack: %v", err)
	}
	if !rt.Graph().Contains(id) {
		t.Fatalf("committed create %v not applied locally", id)
	}
	if p.Applied() != 1 || p.Appends() != 1 {
		t.Fatalf("applied=%d appends=%d, want 1/1", p.Applied(), p.Appends())
	}
	// The log holds exactly one record: no duplicate from a retry.
	if _, _, err := inner.Get(recKey(2)); !errors.Is(err, cloudstore.ErrNotFound) {
		t.Fatalf("unexpected second record after lost-ack append: %v", err)
	}
}

func TestRemoveServerValidatesDrainAtCapture(t *testing.T) {
	store := cloudstore.New()
	rt, roots := newTestRuntime(t, 2)
	p := newTestPlane(t, rt, store, 1)
	_ = roots
	// Server 2 hosts its root context: scale-in must be refused at capture,
	// before anything reaches the log.
	if err := p.RemoveServer(2); err == nil {
		t.Fatal("RemoveServer of a hosting server succeeded")
	}
	if p.Appends() != 0 {
		t.Fatal("refused removal still appended a record")
	}
	if _, ok := rt.Cluster().Server(2); !ok {
		t.Fatal("refused removal still removed the server locally")
	}
}

// TestVirtualIDsRejectedAtCapture pins the determinism guard: virtual-join
// contexts are process-local (minted in local query order from the reserved
// band), so a mutation naming one must be refused before it reaches the log
// — applying it on another replica could attach to a different virtual, or
// none, and desync the ID allocator.
func TestVirtualIDsRejectedAtCapture(t *testing.T) {
	store := cloudstore.New()
	rt, roots := newTestRuntime(t, 1)
	p := newTestPlane(t, rt, store, 1)

	virtual := ownership.VirtualIDBase + 7
	if _, err := p.CreateContext("Leaf", 1, []ownership.ID{virtual}); !errors.Is(err, ErrVirtualID) {
		t.Fatalf("create owned by virtual = %v, want ErrVirtualID", err)
	}
	if err := p.AddEdge(virtual, roots[0]); !errors.Is(err, ErrVirtualID) {
		t.Fatalf("edge from virtual = %v, want ErrVirtualID", err)
	}
	if err := p.DestroyContext(virtual); !errors.Is(err, ErrVirtualID) {
		t.Fatalf("destroy virtual = %v, want ErrVirtualID", err)
	}
	if p.Appends() != 0 {
		t.Fatalf("rejected mutations still appended %d records", p.Appends())
	}
}

func TestRejoiningReplicaReplaysLogOnStart(t *testing.T) {
	store := cloudstore.New()
	rtA, rootsA := newTestRuntime(t, 2)
	pA := newTestPlane(t, rtA, store, 1)
	var created []ownership.ID
	for i := 0; i < 5; i++ {
		id, err := rtA.CreateContextOn(2, "Leaf", rootsA[1])
		if err != nil {
			t.Fatal(err)
		}
		created = append(created, id)
	}
	if err := rtA.DestroyContext(created[0]); err != nil {
		t.Fatal(err)
	}

	// A "rejoining" node: fresh deterministic startup replica, plane Start
	// replays the whole log before returning.
	rtB, _ := newTestRuntime(t, 2)
	pB := newTestPlane(t, rtB, store, 2)
	if pB.Applied() != pA.Applied() {
		t.Fatalf("rejoined replica at seq %d, fleet at %d", pB.Applied(), pA.Applied())
	}
	if fA, fB := graphFingerprint(t, rtA.Graph()), graphFingerprint(t, rtB.Graph()); fA != fB {
		t.Fatalf("rejoined replica diverged:\nA:\n%s\nB:\n%s", fA, fB)
	}
}

// countingStore records the store operations a plane makes, head keys apart.
type countingStore struct {
	cloudstore.API
	mu  sync.Mutex
	ops []string // "get <key>" or "cas <key>", record keys only
}

func (s *countingStore) note(op, key string) {
	if key != headKey {
		s.mu.Lock()
		s.ops = append(s.ops, op+" "+key)
		s.mu.Unlock()
	}
}

func (s *countingStore) Get(key string) ([]byte, uint64, error) {
	s.note("get", key)
	return s.API.Get(key)
}

func (s *countingStore) CAS(key string, expect uint64, value []byte) (uint64, error) {
	s.note("cas", key)
	return s.API.CAS(key, expect, value)
}

func (s *countingStore) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := s.ops
	s.ops = nil
	return ops
}

// TestUncontendedAppendMakesTwoRoundTrips: an append probes the log's tail
// and CAS-creates its record, then applies the record it holds; it neither
// reads its record back nor waits for the head, which still reaches the
// tail once appends stop. (The parent read the record and the next key
// back, and advanced the head, before it answered: six round trips.)
func TestUncontendedAppendMakesTwoRoundTrips(t *testing.T) {
	store := &countingStore{API: cloudstore.New()}
	rt, roots := newTestRuntime(t, 1)
	p := newTestPlane(t, rt, store, 1)
	p.Pause() // no tailer reads between the counts
	store.take()
	if _, err := rt.CreateContextOn(1, "Leaf", roots[0]); err != nil {
		t.Fatal(err)
	}
	want := []string{"get " + recKey(1), "cas " + recKey(1)}
	if ops := store.take(); !reflect.DeepEqual(ops, want) {
		t.Fatalf("an uncontended append made %d round trips %q; want %q", len(ops), ops, want)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := rt.CreateContextOn(1, "Leaf", roots[0]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Close waits out the appender, whose last batch found nothing queued
	// behind it.
	p.Close()
	if head, tail := readHead(store), p.Applied(); head != tail {
		t.Fatalf("head hint = %d once appends stopped, tail %d", head, tail)
	}
}

// TestAppenderRacesTheTailer: two planes append over one store while each
// replica's catch-up runs without pause, so a record is applied by its
// appender or by a catch-up that read it back, whichever comes first. Every
// append answers with the ID its record assigned, once, and the replicas
// converge.
func TestAppenderRacesTheTailer(t *testing.T) {
	store := cloudstore.New()
	rtA, roots := newTestRuntime(t, 2)
	rtB, _ := newTestRuntime(t, 2)
	planes := []*Plane{newTestPlane(t, rtA, store, 1), newTestPlane(t, rtB, store, 2)}
	done := make(chan struct{})
	var tailers sync.WaitGroup
	for _, p := range planes {
		tailers.Add(1)
		go func(p *Plane) {
			defer tailers.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = p.CatchUp()
					p.Poke(p.Applied() + 1)
				}
			}
		}(p)
	}
	const workers, each = 3, 15
	var wg sync.WaitGroup
	ids := make(chan ownership.ID, 2*workers*each)
	for w := 0; w < workers; w++ {
		for i, rt := range []*core.Runtime{rtA, rtB} {
			wg.Add(1)
			go func(rt *core.Runtime, srv cluster.ServerID) {
				defer wg.Done()
				for k := 0; k < each; k++ {
					id, err := rt.CreateContextOn(srv, "Leaf", roots[0])
					if err != nil {
						t.Error(err)
						return
					}
					// The answer is this replica's apply of the record.
					if at, ok := rt.Directory().Locate(id); !ok || at != srv {
						t.Errorf("created %v placed on %v (%v), want %v", id, at, ok, srv)
					}
					ids <- id
				}
			}(rt, cluster.ServerID(i+1))
		}
	}
	wg.Wait()
	close(done)
	tailers.Wait()
	close(ids)
	seen := map[ownership.ID]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("ID %v answered twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 2*workers*each {
		t.Fatalf("%d IDs answered, want %d", len(seen), 2*workers*each)
	}
	for _, p := range planes {
		if err := p.CatchUp(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := planes[0].Applied(), planes[1].Applied(); a != b || planes[0].Appends()+planes[1].Appends() != a {
		t.Fatalf("applied %d and %d, appends %d+%d", a, b, planes[0].Appends(), planes[1].Appends())
	}
	if fA, fB := graphFingerprint(t, rtA.Graph()), graphFingerprint(t, rtB.Graph()); fA != fB {
		t.Fatalf("replicas diverged:\nA:\n%s\nB:\n%s", fA, fB)
	}
}
