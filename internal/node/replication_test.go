package node

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cluster"
	"aeon/internal/emanager"
	"aeon/internal/ownership"
	"aeon/internal/replication"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// fakeClock stands in for real time in the tests that steer a tailer's poll
// or the lag wait. Every ticker started on it gets its own channel, in start
// order (Deploy starts nodes in ID order), and ticks only when the test sends
// on it. A timer armed on it is handed to the test on timers and fires only
// when the test fires it, on the test's goroutine.
type fakeClock struct {
	mu      sync.Mutex
	tickers []chan time.Time
	timers  chan *fakeTimer
}

type fakeTimer struct {
	f    func()
	done atomic.Bool // fired or stopped
}

func (f *fakeTimer) Stop() bool { return f.done.CompareAndSwap(false, true) }

// useFakeClock installs a fakeClock until the test ends.
func useFakeClock(t *testing.T) *fakeClock {
	// More timers than a test arms, so AfterFunc never blocks.
	c := &fakeClock{timers: make(chan *fakeTimer, 64)}
	t.Cleanup(clock.Use(c))
	return c
}

func (c *fakeClock) AfterFunc(_ time.Duration, f func()) clock.Timer {
	ft := &fakeTimer{f: f}
	c.timers <- ft
	return ft
}

func (c *fakeClock) Tick(time.Duration) (<-chan time.Time, func()) {
	ch := make(chan time.Time)
	c.mu.Lock()
	c.tickers = append(c.tickers, ch)
	c.mu.Unlock()
	return ch, func() {}
}

// ticker returns the channel of the i-th ticker started on c.
func (c *fakeClock) ticker(i int) chan<- time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tickers[i]
}

// fireNext fires the next timer armed on c that is still live.
func (c *fakeClock) fireNext() {
	for {
		if ft := <-c.timers; ft.done.CompareAndSwap(false, true) {
			ft.f()
			return
		}
	}
}

// deployReplicated builds an n-node in-process deployment with the
// replicated ownership-metadata control plane enabled.
func deployReplicated(t *testing.T, mesh transport.Mesh, n int) *Deployment {
	t.Helper()
	return deployTopology(t, mesh, Topology{Nodes: n, Replicate: true})
}

// diffScripts fails the test when the deployment's outcomes diverge from
// the oracle's.
func diffScripts(t *testing.T, phase string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: result counts differ: %d vs %d\ngot:  %v\nwant: %v", phase, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d diverged: deployment=%q oracle=%q", phase, i, got[i], want[i])
		}
	}
}

// TestReplicatedRuntimeCreationMatchesOracle is the acceptance-criterion
// test: contexts created at runtime through events executing on different
// nodes are submittable from every node, and the full outcome stream —
// including the log-assigned context IDs — is identical to a single-process
// run.
func TestReplicatedRuntimeCreationMatchesOracle(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d := deployReplicated(t, mesh, 3)

	n1 := d.Nodes[0]
	static := RunBankScript(n1.Submit, d.Top)
	dynamic := RunBankDynamicScript(n1.Submit, d.Top)
	wantStatic, wantDynamic, err := BankDynamicOracle(3, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffScripts(t, "static", static, wantStatic)
	diffScripts(t, "dynamic", dynamic, wantDynamic)

	// The dynamic script opened one account per bank; bank 2 and 3's opens
	// executed on nodes 2 and 3 (two different processes captured the
	// mutations). Now submit to a node-2-created context from node 3, and a
	// node-3-created one from node 2 — neither was creator or driver.
	id2, err := n1.Submit(d.Top.Banks[1], "open", 5)
	if err != nil {
		t.Fatalf("open on node 2: %v", err)
	}
	id3, err := n1.Submit(d.Top.Banks[2], "open", 5)
	if err != nil {
		t.Fatalf("open on node 3: %v", err)
	}
	if _, err := d.Nodes[2].Submit(id2.(ownership.ID), "deposit", 1); err != nil {
		t.Fatalf("node 3 submit to node-2-created context: %v", err)
	}
	if _, err := d.Nodes[1].Submit(id3.(ownership.ID), "deposit", 1); err != nil {
		t.Fatalf("node 2 submit to node-3-created context: %v", err)
	}
	// Everyone converged on the same applied sequence.
	want := d.Nodes[0].Plane().Applied()
	for _, n := range d.Nodes[1:] {
		if err := n.Plane().WaitFor(want, 5*time.Second); err != nil {
			t.Fatalf("node %v never converged to seq %d: %v", n.ID(), want, err)
		}
	}
}

// TestReplicatedTCPDynamicTopology runs the same dynamic-topology flow over
// real TCP loopback sockets.
func TestReplicatedTCPDynamicTopology(t *testing.T) {
	mesh := transport.NewTCPMesh()
	d := deployReplicated(t, mesh, 2)

	n1 := d.Nodes[0]
	static := RunBankScript(n1.Submit, d.Top)
	dynamic := RunBankDynamicScript(n1.Submit, d.Top)
	wantStatic, wantDynamic, err := BankDynamicOracle(2, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffScripts(t, "static", static, wantStatic)
	diffScripts(t, "dynamic", dynamic, wantDynamic)
}

// TestReplicationSurvivesNotifyFaults drops and duplicates the notify-hint
// frames: propagation degrades to the tailer poll, never to divergence, and
// duplicated hints never double-apply a record.
func TestReplicationSurvivesNotifyFaults(t *testing.T) {
	clk := useFakeClock(t)
	net := transport.NewSim(transport.SimConfig{})
	fm := transport.NewFaultyMesh(transport.NewInMemMesh(net))
	d := deployReplicated(t, fm, 3)

	n1, n2, n3 := d.Nodes[0], d.Nodes[1], d.Nodes[2]
	// Node 2 loses every frame from node 1 — including notify hints. Its
	// store traffic flows 2→1, which stays healthy, so the poll catches it
	// up. Node 3 receives duplicated frames (at-least-once delivery).
	fm.Drop(1, 2)
	fm.Duplicate(1, 3, 8)

	id, err := n1.Submit(d.Top.Banks[0], "open", 50)
	if err != nil {
		t.Fatalf("open during notify faults: %v", err)
	}
	target := n1.Plane().Applied()
	// Node 2 heard of the record from nobody: only its poll can find it.
	if got := n2.Plane().Applied(); got >= target {
		t.Fatalf("node 2 applied seq %d of %d with every hint dropped and no poll tick", got, target)
	}
	// The second tick is taken only once the first one's pass has run.
	for range 2 {
		clk.ticker(1) <- time.Time{}
	}
	if got := n2.Plane().Applied(); got < target {
		t.Fatalf("node 2 at seq %d after a poll tick, want %d", got, target)
	}
	if err := n3.Plane().WaitFor(target, 5*time.Second); err != nil {
		t.Fatalf("node 3 did not converge with duplicated notifies: %v", err)
	}
	// Exactly-once apply: every replica holds exactly one new context.
	wantLen := n1.Runtime().Graph().Len()
	for _, n := range []*Node{n2, n3} {
		if got := n.Runtime().Graph().Len(); got != wantLen {
			t.Fatalf("node %v graph has %d contexts, node 1 has %d (duplicate or lost apply)",
				n.ID(), got, wantLen)
		}
	}
	fm.Heal(1, 2)
	// The created context is submittable from the node that was cut off.
	if _, err := n2.Submit(id.(ownership.ID), "deposit", 1); err != nil {
		t.Fatalf("node 2 submit to context created during partition: %v", err)
	}
}

// TestReplicatedNodeRejoinCatchesUp kills a node, mutates the topology
// while it is gone, and restarts it: the fresh process must replay the
// mutation log before serving, and then both serve the missed contexts
// locally and submit to them remotely.
func TestReplicatedNodeRejoinCatchesUp(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	top := Topology{Nodes: 2, Replicate: true}
	d, err := Deploy(mesh, top)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	n1 := d.Nodes[0]

	// Kill node 2 (the non-store node: the log must survive).
	old := d.Nodes[1]
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	old.Runtime().Close()

	// Mutate the topology while node 2 is down: a context placed on node
	// 2's server, created through node 1.
	id, err := n1.Runtime().CreateContextOn(2, "Account", d.Top.Banks[1])
	if err != nil {
		t.Fatalf("create while peer down: %v", err)
	}

	// Restart node 2 from scratch; Start replays the log before serving.
	n2, err := d.Restart(mesh, top, 2)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if got, want := n2.Plane().Applied(), n1.Plane().Applied(); got != want {
		t.Fatalf("rejoined node at seq %d, fleet at %d (did not catch up before serving)", got, want)
	}
	if !n2.Runtime().Graph().Contains(id) {
		t.Fatalf("rejoined node missing context %v created while it was down", id)
	}
	// The missed context executes locally on the rejoined node (it owns the
	// hosting server) and is reachable from node 1 over the mesh.
	if _, err := n2.Submit(id, "deposit", 10); err != nil {
		t.Fatalf("rejoined node submit to missed context: %v", err)
	}
	fwd := n1.Forwarded()
	if _, err := n1.Submit(id, "deposit", 10); err != nil {
		t.Fatalf("node 1 submit to rejoined node's context: %v", err)
	}
	if n1.Forwarded() == fwd {
		t.Fatal("node 1's submit should have crossed the mesh to the rejoined node")
	}
	bal, err := n2.Submit(id, "balance")
	if err != nil {
		t.Fatal(err)
	}
	if bal.(int) != 20 {
		t.Fatalf("balance = %v, want 20", bal)
	}
}

// TestEManagerScaleOutReplicatesMembership pins the membership hook: a
// policy-driven AddServer on one node's eManager must appear in every
// node's cluster replica (sequenced through the log), not just the local
// map.
func TestEManagerScaleOutReplicatesMembership(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d := deployReplicated(t, mesh, 2)
	n1, n2 := d.Nodes[0], d.Nodes[1]

	before := n1.Runtime().Cluster().Size()
	if err := n1.mgr.Apply(emanager.AddServer{Profile: cluster.M1Small}); err != nil {
		t.Fatalf("policy scale-out: %v", err)
	}
	if got := n1.Runtime().Cluster().Size(); got != before+1 {
		t.Fatalf("node 1 cluster size = %d, want %d", got, before+1)
	}
	if err := n2.Plane().WaitFor(n1.Plane().Applied(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := n2.Runtime().Cluster().Size(); got != before+1 {
		t.Fatalf("scale-out did not replicate: node 2 cluster size = %d, want %d", got, before+1)
	}
}

// TestReplicaLagGateBlocksThenFails pins the typed failure mode: a submit
// carrying a sequence the receiver can never reach (its store view is the
// authority and holds less) fails with replication.ErrReplicaLagging
// instead of misrouting, and a reachable sequence blocks-and-succeeds.
func TestReplicaLagGateBlocksThenFails(t *testing.T) {
	clk := useFakeClock(t)
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d := deployReplicated(t, mesh, 2)
	n2 := d.Nodes[1]
	waited := make(chan error, 1)
	go func() { waited <- n2.Plane().WaitFor(n2.Plane().Applied()+100, replicaLagWait) }()
	clk.fireNext() // the lag wait expires
	err := <-waited
	if !errors.Is(err, replication.ErrReplicaLagging) {
		t.Fatalf("WaitFor an unreachable sequence = %v, want ErrReplicaLagging", err)
	}
	// The sentinel survives the wire, and says the submit did not execute.
	back := schema.Err(schema.CodeOf(err), err.Error())
	if !errors.Is(back, replication.ErrReplicaLagging) || schema.CodeOf(back).Class() != schema.NotExecuted {
		t.Fatalf("wire round trip lost the sentinel: %v (code %s)", back, schema.CodeOf(back).Name())
	}
	// A reachable sequence blocks and succeeds.
	if err := n2.Plane().WaitFor(d.Nodes[0].Plane().Applied(), 2*time.Second); err != nil {
		t.Fatalf("WaitFor a durable sequence: %v", err)
	}
}
