package node

// Restarts through the product's own path: Close drains the node and
// checkpoints its server, Start restores the checkpoints and rolls the
// node's own migration journal forward before it serves. No test here
// restores anything by hand.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// restartNode closes node id the way its process exits — Close, then the
// runtime — rebuilds it from scratch and waits until the fleet is meshed.
func restartNode(t *testing.T, d *Deployment, mesh transport.Mesh, top Topology, id transport.NodeID) *Node {
	t.Helper()
	old := d.Node(id)
	if err := old.Close(); err != nil {
		t.Fatalf("close node %v: %v", id, err)
	}
	old.Runtime().Close()
	n, err := d.Restart(mesh, top, id)
	if err != nil {
		t.Fatalf("restart node %v: %v", id, err)
	}
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return n
}

// restartMeshes are the two meshes every restart round trip runs over.
var restartMeshes = map[string]func() transport.Mesh{
	"inmem": func() transport.Mesh { return transport.NewInMemMesh(transport.NewSim(transport.SimConfig{})) },
	"tcp":   func() transport.Mesh { return transport.NewTCPMesh() },
}

// TestRestartKeepsAcknowledgedWrites is the round trip: ten acked deposits
// of 100 into an account node 2 hosts, node 2 restarted, and the account
// reads 2000 from both nodes, over the in-memory mesh and TCP loopback.
func TestRestartKeepsAcknowledgedWrites(t *testing.T) {
	for name, newMesh := range restartMeshes {
		t.Run(name, func(t *testing.T) {
			mesh := newMesh()
			top := Topology{Nodes: 2, Replicate: true}
			d, err := Deploy(mesh, top)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			if err := d.WaitReady(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			acct := d.Top.Accounts[1][0]
			for i := 0; i < 10; i++ {
				if _, err := d.Nodes[0].Submit(acct, "deposit", 100); err != nil {
					t.Fatal(err)
				}
			}
			restartNode(t, d, mesh, top, 2)
			for _, n := range d.Nodes {
				if res, err := n.Submit(acct, "balance"); err != nil || res.(int) != 2000 {
					t.Fatalf("node %v reads %v (err %v) after node 2 restarted, want 2000", n.ID(), res, err)
				}
			}
		})
	}
}

// deployTopology deploys top on mesh and waits until the fleet is meshed.
func deployTopology(t *testing.T, mesh transport.Mesh, top Topology) *Deployment {
	t.Helper()
	d, err := Deploy(mesh, top)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return d
}

// deposits acks n deposits of 100 into acct, submitted at node `at`.
func deposits(t *testing.T, at *Node, acct ownership.ID, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := at.Submit(acct, "deposit", 100); err != nil {
			t.Fatal(err)
		}
	}
}

// placedAndReads checks every node, once its replica has caught up with the
// log, places bank on server `on` and reads want from acct.
func placedAndReads(t *testing.T, d *Deployment, bank, acct ownership.ID, on cluster.ServerID, want int) {
	t.Helper()
	for _, n := range d.Nodes {
		if err := n.Plane().CatchUp(); err != nil {
			t.Fatalf("node %v catch-up: %v", n.ID(), err)
		}
		if srv, _ := n.Runtime().Directory().Locate(bank); srv != on {
			t.Errorf("node %v places the bank on %v, want %v", n.ID(), srv, on)
		}
		if res, err := n.Submit(acct, "balance"); err != nil || res.(int) != want {
			t.Errorf("node %v reads %v (err %v), want %d", n.ID(), res, err, want)
		}
	}
}

// TestSourceRestartAfterMigrationKeepsAcknowledgedWrites restarts the
// source of a move: five deposits, node 2's bank moved to server 1, five
// more deposits, node 2 restarted. The restarted node learns the move from
// the log, so it neither takes the group back nor restores its pre-move
// state: both nodes place the bank on server 1 and read 2000.
func TestSourceRestartAfterMigrationKeepsAcknowledgedWrites(t *testing.T) {
	for name, newMesh := range restartMeshes {
		t.Run(name, func(t *testing.T) {
			mesh := newMesh()
			top := Topology{Nodes: 2, Replicate: true}
			d := deployTopology(t, mesh, top)
			bank, acct := d.Top.Banks[1], d.Top.Accounts[1][0]
			deposits(t, d.Nodes[0], acct, 5)
			if err := d.Nodes[0].MigrateRemote(2, bank, 1); err != nil {
				t.Fatal(err)
			}
			deposits(t, d.Nodes[0], acct, 5)
			restartNode(t, d, mesh, top, 2)
			placedAndReads(t, d, bank, acct, 1, 2000)
		})
	}
}

// TestDestinationRestartAfterMigrationKeepsAcknowledgedWrites restarts the
// destination of a move: node 2's bank moved to server 1 and took five
// deposits, then node 1 restarted (the store is on node 3). Node 1
// checkpointed the moved group at close and places it on itself again at
// boot, so every node routes to it and reads 1500.
func TestDestinationRestartAfterMigrationKeepsAcknowledgedWrites(t *testing.T) {
	for name, newMesh := range restartMeshes {
		t.Run(name, func(t *testing.T) {
			mesh := newMesh()
			top := Topology{Nodes: 3, StoreNode: 3, Replicate: true}
			d := deployTopology(t, mesh, top)
			bank, acct := d.Top.Banks[1], d.Top.Accounts[1][0]
			if err := d.Nodes[0].MigrateRemote(2, bank, 1); err != nil {
				t.Fatal(err)
			}
			deposits(t, d.Nodes[0], acct, 5)
			restartNode(t, d, mesh, top, 1)
			placedAndReads(t, d, bank, acct, 1, 1500)
		})
	}
}

// TestDestinationCloseBeforeTheMoveAppliesKeepsItsState closes the
// destination of a move after it installed the group's state but before its
// replica applied the move record: node 2's bank takes five deposits and
// moves to server 1 (the store is on node 3), then node 1 restarts. In
// "appended" node 1's tailer is paused, so the record is in the log before
// node 1 closes; in "appending" node 2's commit append is held until node 1,
// closing, reads the log (or has closed). Either way node 1's close
// checkpoints the group, and every node places the bank on server 1 and
// reads 1500.
func TestDestinationCloseBeforeTheMoveAppliesKeepsItsState(t *testing.T) {
	for name, newMesh := range restartMeshes {
		t.Run(name+"/appended", func(t *testing.T) {
			mesh := newMesh()
			top := Topology{Nodes: 3, StoreNode: 3, Replicate: true}
			d := deployTopology(t, mesh, top)
			bank, acct := d.Top.Banks[1], d.Top.Accounts[1][0]
			deposits(t, d.Nodes[1], acct, 5)
			d.Nodes[0].Plane().Pause()
			if err := d.Nodes[2].MigrateRemote(2, bank, 1); err != nil {
				t.Fatal(err)
			}
			restartNode(t, d, mesh, top, 1)
			placedAndReads(t, d, bank, acct, 1, 1500)
		})
		t.Run(name+"/appending", func(t *testing.T) {
			mesh := &recordTap{Mesh: newMesh()}
			top := Topology{Nodes: 3, StoreNode: 3, Replicate: true}
			d := deployTopology(t, mesh, top)
			bank, acct := d.Top.Banks[1], d.Top.Accounts[1][0]
			deposits(t, d.Nodes[1], acct, 5)
			held, release, closing, reading := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
			var holdOnce, readOnce sync.Once
			tap := tapFunc(func(from transport.NodeID, op cloudstore.Op, send func() (transport.Message, error)) (transport.Message, error) {
				switch {
				case op.Kind == cloudstore.OpCAS:
					holdOnce.Do(func() { close(held); <-release })
				case from == 1 && op.Kind == cloudstore.OpGet:
					select {
					case <-closing:
						readOnce.Do(func() { close(reading) })
					default:
					}
				}
				return send()
			})
			mesh.tap.Store(&tap)
			moved := make(chan error, 1)
			go func() { moved <- d.Nodes[2].MigrateRemote(2, bank, 1) }()
			<-held
			old := d.Node(1)
			closed := make(chan error, 1)
			close(closing)
			go func() { closed <- old.Close() }()
			var err error
			select {
			case <-reading:
				close(release)
				err = <-closed
			case err = <-closed:
				close(release)
			}
			if err != nil {
				t.Fatalf("close node 1: %v", err)
			}
			old.Runtime().Close()
			if err := <-moved; err != nil {
				t.Fatal(err)
			}
			if _, err := d.Restart(mesh, top, 1); err != nil {
				t.Fatal(err)
			}
			if err := d.WaitReady(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			placedAndReads(t, d, bank, acct, 1, 1500)
		})
	}
}

// TestDeploymentCloseCheckpointsIntoTheStore pins the close order: the
// store-serving node closes last, so node 2's close-time checkpoint reaches
// node 1's store — a snapshot key for each of node 2's accounts.
func TestDeploymentCloseCheckpointsIntoTheStore(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := Deploy(mesh, Topology{Nodes: 2, StoreNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Nodes[1].Submit(d.Top.Accounts[1][0], "deposit", 1); err != nil {
		t.Fatal(err)
	}
	d.Close()
	keys, err := d.Stores[0].List("snapshot/")
	if err != nil {
		t.Fatal(err)
	}
	for _, acct := range d.Top.Accounts[1] {
		prefix := fmt.Sprintf("snapshot/%d/", uint64(acct))
		found := false
		for _, k := range keys {
			found = found || strings.HasPrefix(k, prefix)
		}
		if !found {
			t.Fatalf("no checkpoint of node 2's account %v in the store: %v", acct, keys)
		}
	}
}

// TestCloseDrainsBeforeItCheckpoints closes and restarts node 2, four times,
// while node 1 deposits into node 2's accounts from several goroutines.
// Every deposit acknowledged before a close survives it, and none the
// draining node refused appears: each account's delta lies in [acked,
// started], and equals acked when no outcome was ambiguous.
func TestCloseDrainsBeforeItCheckpoints(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	top := Topology{Nodes: 2}
	d, err := Deploy(mesh, top)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	n1, accts := d.Nodes[0], d.Top.Accounts[1]
	type tally struct{ started, acked, ambiguous atomic.Int64 }
	tallies := make([]tally, len(accts))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				k := i % len(accts)
				tallies[k].started.Add(1)
				_, err := n1.Submit(accts[k], "deposit", 1)
				switch {
				case err == nil:
					tallies[k].acked.Add(1)
				case schema.CodeOf(err).Class() != schema.NotExecuted:
					tallies[k].ambiguous.Add(1)
					runtime.Gosched()
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	t.Cleanup(func() { stop.Store(true); wg.Wait() }) // before d.Close
	waitAcked := func(n int64) {
		for {
			var sum int64
			for k := range tallies {
				sum += tallies[k].acked.Load()
			}
			if sum >= n {
				return
			}
			runtime.Gosched()
		}
	}
	for round := int64(1); round <= 4; round++ {
		waitAcked(200 * round)
		restartNode(t, d, mesh, top, 2)
	}
	waitAcked(1000)
	stop.Store(true)
	wg.Wait()

	for k, acct := range accts {
		res, err := d.Nodes[1].Submit(acct, "balance")
		if err != nil {
			t.Fatal(err)
		}
		delta := int64(res.(int) - 1000)
		started, acked, ambiguous := tallies[k].started.Load(), tallies[k].acked.Load(), tallies[k].ambiguous.Load()
		if delta < acked || delta > started || ambiguous == 0 && delta != acked {
			t.Errorf("account %v: delta %d outside [%d acked, %d started] (%d ambiguous)", acct, delta, acked, started, ambiguous)
		}
	}
}

// TestBootWaitsForTheStore starts node 2 before node 1, which serves the
// store: once node 2 has found the store absent, node 1 starts, and node
// 2's Start — which serves nothing before it returns — succeeds.
func TestBootWaitsForTheStore(t *testing.T) {
	mesh := missWatch{transport.NewInMemMesh(transport.NewSim(transport.SimConfig{})), make(chan struct{}, 1)}
	top := Topology{Nodes: 2}.withDefaults()
	type started struct {
		n   *Node
		err error
	}
	second := make(chan started, 1)
	go func() {
		n, _, _, err := buildNode(mesh, top, 2)
		second <- started{n, err}
	}()
	<-mesh.missed
	n1, bank, _, err := buildNode(mesh, top, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := <-second
	if got.err != nil {
		t.Fatalf("node 2 booted before the store failed to start: %v", got.err)
	}
	d := &Deployment{Nodes: []*Node{n1, got.n}, Top: bank}
	defer d.Close()
	if res, err := n1.Submit(bank.Accounts[1][0], "deposit", 5); err != nil || res.(int) != 1005 {
		t.Fatalf("deposit through node 2 = %v err=%v", res, err)
	}
}

// missWatch is a mesh whose endpoints signal missed the first time a call
// finds its peer not attached.
type missWatch struct {
	transport.Mesh
	missed chan struct{}
}

func (m missWatch) Attach(id transport.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := m.Mesh.Attach(id, h)
	return missWatchEndpoint{ep, m.missed}, err
}

type missWatchEndpoint struct {
	transport.Endpoint
	missed chan struct{}
}

func (e missWatchEndpoint) Call(ctx context.Context, to transport.NodeID, req transport.Message) (transport.Message, error) {
	resp, err := e.Endpoint.Call(ctx, to, req)
	if errors.Is(err, transport.ErrNodeUnknown) {
		select {
		case e.missed <- struct{}{}:
		default:
		}
	}
	return resp, err
}
