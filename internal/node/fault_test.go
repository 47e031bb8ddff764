package node

// Fault injection at the mesh layer: node crashes, partitions, and
// dropped/duplicated calls. The invariants under test: operations fail fast
// with typed errors instead of wedging, queued work keeps draining, and the
// eManager's checkpoint-based failure recovery still rehosts lost contexts
// from the authoritative store after a node dies.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// deployFaulty builds a 2-node deployment over a fault-injecting wrapper of
// the in-memory mesh (itself over a partitionable simulated network).
func deployFaulty(t *testing.T, nodes int) (*Deployment, *transport.FaultyMesh, *transport.SimNetwork) {
	t.Helper()
	net := transport.NewSim(transport.SimConfig{})
	fm := transport.NewFaultyMesh(transport.NewInMemMesh(net))
	d, err := Deploy(fm, Topology{Nodes: nodes})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	return d, fm, net
}

func TestDroppedCallFailsTypedNotWedged(t *testing.T) {
	d, fm, _ := deployFaulty(t, 2)
	acct := d.Top.Accounts[1][0]

	fm.Drop(1, 2)
	done := make(chan error, 1)
	go func() {
		_, err := d.Nodes[0].Submit(acct, "deposit", 10)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrDropped) {
			t.Fatalf("err = %v, want ErrDropped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dropped call wedged the submitter")
	}

	// The link heals and the same submit succeeds — nothing leaked.
	fm.Heal(1, 2)
	res, err := d.Nodes[0].Submit(acct, "deposit", 10)
	if err != nil || res.(int) != 1010 {
		t.Fatalf("post-heal submit = %v err=%v", res, err)
	}
}

func TestPartitionedNetworkFailsTyped(t *testing.T) {
	d, _, net := deployFaulty(t, 2)
	acct := d.Top.Accounts[1][0]

	net.Partition(1, 2)
	_, err := d.Nodes[0].Submit(acct, "deposit", 10)
	if !errors.Is(err, transport.ErrPartitioned) {
		t.Fatalf("err = %v, want ErrPartitioned", err)
	}
	net.Heal(1, 2)
	if _, err := d.Nodes[0].Submit(acct, "deposit", 10); err != nil {
		t.Fatalf("post-heal: %v", err)
	}
}

func TestDuplicatedCallDoesNotWedgeAndReadsStayCorrect(t *testing.T) {
	d, fm, _ := deployFaulty(t, 2)
	acct := d.Top.Accounts[1][0]

	// A duplicated readonly call executes twice on the owner; the caller
	// sees one correct response and the system stays consistent.
	fm.Duplicate(1, 2, 1)
	res, err := d.Nodes[0].Submit(acct, "balance")
	if err != nil || res.(int) != 1000 {
		t.Fatalf("duplicated balance = %v err=%v", res, err)
	}
	// A duplicated mutating call is at-least-once delivery: the owner
	// applies it twice. The caller still gets a response and nothing
	// wedges — the visible cost of retransmission without event IDs, which
	// is why only the transport duplicates here, never the node layer.
	fm.Duplicate(1, 2, 1)
	if _, err := d.Nodes[0].Submit(acct, "deposit", 5); err != nil {
		t.Fatalf("duplicated deposit err=%v", err)
	}
	res, err = d.Nodes[1].Submit(acct, "balance")
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 1010 { // 1000 + 2×5: both deliveries applied
		t.Fatalf("balance after duplicated deposit = %v, want 1010", res)
	}
}

func TestCrashedNodeFailsFastAndQueuedWorkDrains(t *testing.T) {
	d, _, _ := deployFaulty(t, 2)
	n1 := d.Nodes[0]
	remote := d.Top.Accounts[1][0]
	local := d.Top.Accounts[0][0]

	// Queue asynchronous work against both banks, then crash node 2.
	fLocal := n1.Runtime().SubmitAsync(local, "deposit", 1)
	if err := d.Nodes[1].Close(); err != nil {
		t.Fatal(err)
	}

	// Remote submits fail typed (the mesh no longer knows the node), fast.
	done := make(chan error, 1)
	go func() {
		_, err := n1.Submit(remote, "deposit", 1)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, transport.ErrNodeUnknown) {
			t.Fatalf("err = %v, want ErrNodeUnknown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submit to crashed node wedged")
	}

	// Local work queued before the crash still completes.
	if _, err := fLocal.Wait(); err != nil {
		t.Fatalf("local async work: %v", err)
	}
	if res, err := n1.Submit(local, "balance"); err != nil || res.(int) != 1001 {
		t.Fatalf("local balance = %v err=%v", res, err)
	}
}

// TestTransferSurvivesLostAck pins the split-brain fix: the destination
// commits a migration transfer (state install + directory remap) inside the
// handler, so a lost acknowledgment leaves the source unsure whether the
// group moved. The source must probe the destination and, on "committed",
// complete its own remap — never abort into a state where both processes
// consider themselves authoritative.
func TestTransferSurvivesLostAck(t *testing.T) {
	net := transport.NewSim(transport.SimConfig{})
	fm := transport.NewFaultyMesh(transport.NewInMemMesh(net))
	// Store on node 2, so the only 2→1 calls during the migration are the
	// transfer and its commit probe.
	d, err := Deploy(fm, Topology{Nodes: 2, StoreNode: 2})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	n1, n2 := d.Nodes[0], d.Nodes[1]
	bank2 := d.Top.Banks[1]
	acct := d.Top.Accounts[1][0]
	if _, err := n2.Submit(acct, "deposit", 500); err != nil {
		t.Fatal(err)
	}

	// The transfer's ack is lost; its commit probe goes through.
	fm.DropReply(2, 1, 1)
	if err := n1.MigrateRemote(n2.ID(), bank2, 1); err != nil {
		t.Fatalf("migration must resolve the lost ack via the commit probe: %v", err)
	}

	// One authority: both replicas agree the group lives on server 1, and
	// both sides serve the transferred balance.
	for i, n := range d.Nodes {
		if srv, _ := n.Runtime().Directory().Locate(bank2); srv != 1 {
			t.Fatalf("node %d maps bank2 to %v, want 1", i+1, srv)
		}
	}
	if res, err := n1.Submit(acct, "balance"); err != nil || res.(int) != 1500 {
		t.Fatalf("node1 balance = %v err=%v, want 1500", res, err)
	}
	if res, err := n2.Submit(acct, "balance"); err != nil || res.(int) != 1500 {
		t.Fatalf("node2 balance = %v err=%v, want 1500", res, err)
	}
	// The journal cleared: the migration completed, it was not abandoned.
	if keys, _ := d.Stores[1].List("wal/migration/"); len(keys) != 0 {
		t.Fatalf("migration WAL left behind: %v", keys)
	}
}

// TestFailureRecoveryRehostsFromCheckpointsAfterNodeCrash is the paper's
// § 5.3 story across processes: node 2 checkpoints its server through the
// mesh into the authoritative store, crashes, and the surviving node's
// eManager re-homes the lost contexts from those checkpoints.
func TestFailureRecoveryRehostsFromCheckpointsAfterNodeCrash(t *testing.T) {
	d, _, _ := deployFaulty(t, 2)
	n1, n2 := d.Nodes[0], d.Nodes[1]
	acct := d.Top.Accounts[1][0]

	// Real money lands on node 2, then its server checkpoints over the mesh
	// (the writes go through RemoteStore into node 1's store).
	if _, err := n2.Submit(acct, "deposit", 500); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.mgr.CheckpointServer(2); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if keys, _ := d.Stores[0].List("snapshot/"); len(keys) == 0 {
		t.Fatal("no checkpoints reached the authoritative store")
	}

	// Node 2 dies.
	if err := n2.Close(); err != nil {
		t.Fatal(err)
	}

	// The survivor re-homes server 2's contexts from checkpoints.
	report, err := n1.mgr.RecoverServerFailure(2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(report.Lost) == 0 {
		t.Fatal("recovery found nothing to re-home")
	}
	found := false
	for _, id := range report.Restored {
		if id == acct {
			found = true
		}
	}
	if !found {
		t.Fatalf("account %v not restored from checkpoint (restored=%v reset=%v)",
			acct, report.Restored, report.Reset)
	}

	// The restored account serves events on node 1 with the checkpointed
	// balance.
	res, err := n1.Submit(acct, "balance")
	if err != nil {
		t.Fatalf("post-recovery balance: %v", err)
	}
	if res.(int) != 1500 {
		t.Fatalf("recovered balance = %v, want 1500", res)
	}
}

// TestTransferResidualConvergesViaWALRecovery is the two-phase migration's
// worst residual: the destination installs the group and commits its remap,
// but the transfer ack is lost AND the destination is unreachable for the
// commit probe, so the source aborts in doubt — destination authoritative
// per its own directory, source still authoritative per its own, and the
// migration WAL entry pinned. Running WAL recovery on the source, or just
// restarting it, must converge the split to exactly one authority; a
// restart of the destination must leave the source's entry to the source.
func TestTransferResidualConvergesViaWALRecovery(t *testing.T) {
	// inDoubt deploys two nodes whose store is not node `from`'s to call:
	// during the migration the only from→to calls are the transfer and its
	// commit probe, so a reply-drop budget of two kills exactly those. It
	// moves `from`'s bank to `to` with 500 deposited first, and leaves the
	// move in doubt.
	inDoubt := func(t *testing.T, top Topology, from, to transport.NodeID) (*Deployment, *transport.FaultyMesh, ownership.ID, ownership.ID, func() []string) {
		fm := transport.NewFaultyMesh(transport.NewInMemMesh(transport.NewSim(transport.SimConfig{})))
		d, err := Deploy(fm, top)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		t.Cleanup(d.Close)
		bank, acct := d.Top.Banks[from-1], d.Top.Accounts[from-1][0]
		if _, err := d.Node(from).Submit(acct, "deposit", 500); err != nil {
			t.Fatal(err)
		}
		// The journal, read from the authoritative store directly: the
		// nodes may be cut off from it.
		var store interface {
			List(string) ([]string, error)
		}
		if top.StoreParts > 0 {
			store = d.StoreBackends[0]
		} else {
			store = d.Stores[top.StoreNode-1]
		}
		journal := func() []string {
			keys, _ := store.List("wal/migration/")
			return keys
		}
		fm.DropReply(from, to, 2)
		if err := d.Node(to).MigrateRemote(from, bank, cluster.ServerID(to)); err == nil {
			t.Fatal("migration must abort in doubt when ack and probe are both lost")
		}
		if srv, _ := d.Node(to).Runtime().Directory().Locate(bank); srv != cluster.ServerID(to) {
			t.Fatalf("destination should have committed its remap, locates %v", srv)
		}
		if srv, _ := d.Node(from).Runtime().Directory().Locate(bank); srv != cluster.ServerID(from) {
			t.Fatalf("source should still claim the group in doubt, locates %v", srv)
		}
		if len(journal()) == 0 {
			t.Fatal("aborted migration must leave its WAL entry pinned")
		}
		return d, fm, bank, acct, journal
	}
	converged := func(t *testing.T, d *Deployment, bank, acct ownership.ID, to cluster.ServerID, journal func() []string) {
		t.Helper()
		for _, n := range d.Nodes {
			if srv, _ := n.Runtime().Directory().Locate(bank); srv != to {
				t.Fatalf("node %v maps the bank to %v, want exactly one authority on %v", n.ID(), srv, to)
			}
			if res, err := n.Submit(acct, "balance"); err != nil || res.(int) != 1500 {
				t.Fatalf("node %v balance = %v err=%v, want 1500", n.ID(), res, err)
			}
		}
		if keys := journal(); len(keys) != 0 {
			t.Fatalf("migration WAL left behind: %v", keys)
		}
	}

	t.Run("recover", func(t *testing.T) {
		// Store on node 2, the source.
		d, _, bank, acct, journal := inDoubt(t, Topology{Nodes: 2, StoreNode: 2}, 2, 1)
		// The source's WAL replay re-runs the protocol, discovers the
		// committed transfer, and finishes its own remap.
		if err := d.Nodes[1].mgr.Recover(); err != nil {
			t.Fatalf("WAL recovery: %v", err)
		}
		converged(t, d, bank, acct, 1, journal)
	})

	t.Run("restart", func(t *testing.T) {
		// A store plane of its own: Restart refuses the store node. The
		// restarted source rolls its entry forward before it serves.
		top := Topology{Nodes: 2, StoreParts: 1}
		d, fm, bank, acct, journal := inDoubt(t, top, 2, 1)
		restartNode(t, d, fm, top, 2)
		converged(t, d, bank, acct, 1, journal)
	})

	t.Run("restart-other-source", func(t *testing.T) {
		// Node 1's move to node 2 is in doubt; restarting node 2, the
		// destination, leaves node 1's entry alone. Only its source
		// converges it.
		top := Topology{Nodes: 2, StoreParts: 1}
		d, fm, bank, acct, journal := inDoubt(t, top, 1, 2)
		restartNode(t, d, fm, top, 2)
		if keys := journal(); len(keys) != 1 {
			t.Fatalf("restarting the destination touched the source's journal: %v", keys)
		}
		if srv, _ := d.Nodes[0].Runtime().Directory().Locate(bank); srv != 1 {
			t.Fatalf("source locates its in-doubt group on %v after the destination restarted", srv)
		}
		if err := d.Nodes[0].mgr.Recover(); err != nil {
			t.Fatalf("WAL recovery: %v", err)
		}
		converged(t, d, bank, acct, 2, journal)
	})
}

// tapFunc decides the fate of one store call node `from` makes on a
// replication-log record: send delivers it.
type tapFunc func(from transport.NodeID, op cloudstore.Op, send func() (transport.Message, error)) (transport.Message, error)

// recordTap is a mesh whose endpoints hand every store call on a
// replication-log record to the installed tapFunc; with none installed, or
// for any other call, they pass the call through.
type recordTap struct {
	transport.Mesh
	tap atomic.Pointer[tapFunc]
}

func (m *recordTap) Attach(id transport.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := m.Mesh.Attach(id, h)
	return recordTapEndpoint{ep, m}, err
}

type recordTapEndpoint struct {
	transport.Endpoint
	m *recordTap
}

func (e recordTapEndpoint) Call(ctx context.Context, to transport.NodeID, req transport.Message) (transport.Message, error) {
	send := func() (transport.Message, error) { return e.Endpoint.Call(ctx, to, req) }
	tap := e.m.tap.Load()
	var op cloudstore.Op
	if tap == nil || req.Kind != schema.KindStore || op.UnmarshalWire(req.Payload) != nil || !strings.HasPrefix(op.Key, "replog/rec/") {
		return send()
	}
	return (*tap)(e.ID(), op, send)
}

// TestFaultyMoveCommitKeepsAcknowledgedWrites fails the log append that
// commits a move of node 2's bank to server 1: "rejected" before the record
// lands, "reply-lost" after it landed, with the reply and the read that
// probes for the record lost. Node 2 keeps the group stopped until the log
// answers, so the move succeeds exactly when its record landed, and the
// group resumes on node 2 only when it did not. Five deposits follow
// through node 2 and a journal recovery there finishes any move left
// behind: both nodes place the bank on server 1 and read all ten deposits.
func TestFaultyMoveCommitKeepsAcknowledgedWrites(t *testing.T) {
	lost := errors.New("injected store fault")
	for name, landed := range map[string]bool{"rejected": false, "reply-lost": true} {
		t.Run(name, func(t *testing.T) {
			mesh := &recordTap{Mesh: transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))}
			d := deployTopology(t, mesh, Topology{Nodes: 2, Replicate: true})
			bank, acct := d.Top.Banks[1], d.Top.Accounts[1][0]
			deposits(t, d.Nodes[1], acct, 5)
			var fired atomic.Bool
			var blind atomic.Int32
			tap := tapFunc(func(_ transport.NodeID, op cloudstore.Op, send func() (transport.Message, error)) (transport.Message, error) {
				switch {
				case op.Kind == cloudstore.OpCAS && !fired.Swap(true):
					if landed {
						resp, err := send()
						if err == nil {
							resp.Release()
						}
						blind.Store(1)
					}
					return transport.Message{}, lost
				case op.Kind == cloudstore.OpGet && blind.Add(-1) >= 0:
					return transport.Message{}, lost
				}
				return send()
			})
			mesh.tap.Store(&tap)
			err := d.Nodes[0].MigrateRemote(2, bank, 1)
			if !fired.Load() || (err == nil) != landed {
				t.Errorf("move with its commit %s: err %v", name, err)
			}
			deposits(t, d.Nodes[1], acct, 5)
			if err := d.Nodes[1].mgr.Recover(); err != nil {
				t.Fatalf("journal recovery: %v", err)
			}
			placedAndReads(t, d, bank, acct, 1, 2000)
			if keys, _ := d.Stores[0].List("wal/migration/"); len(keys) != 0 {
				t.Fatalf("migration WAL left behind: %v", keys)
			}
		})
	}
}
