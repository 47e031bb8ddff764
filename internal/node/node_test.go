package node

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/core"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// deploy builds an n-node in-memory-mesh deployment with the bank workload.
func deploy(t *testing.T, n int) *Deployment {
	t.Helper()
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := Deploy(mesh, Topology{Nodes: n})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestLocalSubmitDoesNotTouchTheMesh(t *testing.T) {
	d := deploy(t, 2)
	n1 := d.Nodes[0]
	acct := d.Top.Accounts[0][0] // bank 1's account, hosted on server 1

	res, err := n1.Submit(acct, "deposit", 50)
	if err != nil {
		t.Fatalf("local deposit: %v", err)
	}
	if res.(int) != 1050 {
		t.Fatalf("balance = %v, want 1050", res)
	}
	if n1.Forwarded() != 0 {
		t.Fatalf("local submit forwarded %d times", n1.Forwarded())
	}
}

func TestRemoteSubmitExecutesOnOwningNode(t *testing.T) {
	d := deploy(t, 2)
	n1, n2 := d.Nodes[0], d.Nodes[1]
	acct := d.Top.Accounts[1][0] // bank 2's account, hosted on server 2

	res, err := n1.Submit(acct, "deposit", 25)
	if err != nil {
		t.Fatalf("remote deposit: %v", err)
	}
	if res.(int) != 1025 {
		t.Fatalf("balance = %v, want 1025", res)
	}
	if n1.Forwarded() == 0 {
		t.Fatal("remote submit was not forwarded")
	}
	if n2.executed.Load() == 0 {
		t.Fatal("owning node executed nothing")
	}
	// Authoritative state lives on node 2; node 1's replica is untouched.
	c2, err := n2.Runtime().Context(acct)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.State().(*BankAccount).Balance; got != 1025 {
		t.Fatalf("node2 balance = %d, want 1025", got)
	}
	c1, err := n1.Runtime().Context(acct)
	if err != nil {
		t.Fatal(err)
	}
	if got := c1.State().(*BankAccount).Balance; got != 1000 {
		t.Fatalf("node1 replica balance = %d, want untouched 1000", got)
	}
}

func TestRemoteAuditMatchesSingleProcess(t *testing.T) {
	d := deploy(t, 2)
	n1 := d.Nodes[0]
	bank2 := d.Top.Banks[1]

	// A multi-context readonly event executed across the mesh must see the
	// same total a single-process deployment computes.
	if _, err := n1.Submit(d.Top.Accounts[1][1], "deposit", 111); err != nil {
		t.Fatal(err)
	}
	res, err := n1.Submit(bank2, "audit")
	if err != nil {
		t.Fatalf("remote audit: %v", err)
	}
	want := 4*1000 + 111
	if res.(int) != want {
		t.Fatalf("audit = %v, want %d", res, want)
	}
}

func TestSubmitUnknownContextTypedError(t *testing.T) {
	d := deploy(t, 2)
	_, err := d.Nodes[0].Submit(9999, "deposit", 1)
	if !errors.Is(err, core.ErrUnknownContext) {
		t.Fatalf("err = %v, want ErrUnknownContext", err)
	}
}

func TestRemoteStoreOps(t *testing.T) {
	d := deploy(t, 2)
	rs := d.Nodes[1].Store() // node 2 reaches node 1's store over the mesh
	if _, ok := rs.(*RemoteStore); !ok {
		t.Fatalf("node 2 store is %T, want *RemoteStore", rs)
	}

	v1, err := rs.Put("k", []byte("a"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	val, ver, err := rs.Get("k")
	if err != nil || string(val) != "a" || ver != v1 {
		t.Fatalf("get = %q v%d err=%v, want \"a\" v%d", val, ver, err, v1)
	}
	if _, _, err := rs.Get("missing"); !errors.Is(err, cloudstore.ErrNotFound) {
		t.Fatalf("get missing err = %v, want ErrNotFound", err)
	}
	if _, err := rs.CAS("k", v1+100, []byte("b")); !errors.Is(err, cloudstore.ErrVersionMismatch) {
		t.Fatalf("stale CAS err = %v, want ErrVersionMismatch", err)
	}
	if _, err := rs.CAS("k", v1, []byte("b")); err != nil {
		t.Fatalf("CAS: %v", err)
	}
	if _, err := rs.PutBatch(map[string][]byte{"x/1": []byte("1"), "x/2": []byte("2")}); err != nil {
		t.Fatalf("putbatch: %v", err)
	}
	keys, err := rs.List("x/")
	if err != nil || len(keys) != 2 {
		t.Fatalf("list = %v err=%v, want 2 keys", keys, err)
	}
	if err := rs.Delete("x/1"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := rs.Delete("x/1"); !errors.Is(err, cloudstore.ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
	// Everything landed on node 1's authoritative store.
	if _, _, err := d.Stores[0].Get("k"); err != nil {
		t.Fatalf("authoritative store missing k: %v", err)
	}
	// Node 2's own local store was never written.
	if keys, _ := d.Stores[1].List(""); len(keys) != 0 {
		t.Fatalf("non-store node's local store has %v", keys)
	}
}

func TestRemoteStorePutBatchIsOneChargedWrite(t *testing.T) {
	d := deploy(t, 2)
	rs := d.Nodes[1].Store()
	_, w0 := d.Stores[0].Stats()
	if _, err := rs.PutBatch(map[string][]byte{"a": nil, "b": nil, "c": nil}); err != nil {
		t.Fatal(err)
	}
	_, w1 := d.Stores[0].Stats()
	if w1-w0 != 1 {
		t.Fatalf("batch cost %d charged writes, want 1", w1-w0)
	}
}

func TestPersistMappingJournalsIntoAuthoritativeStore(t *testing.T) {
	d := deploy(t, 2)
	if err := d.Nodes[1].Manager().PersistMapping(); err != nil {
		t.Fatalf("persist: %v", err)
	}
	keys, err := d.Stores[0].List("map/")
	if err != nil || len(keys) == 0 {
		t.Fatalf("authoritative store mapping keys = %v err=%v", keys, err)
	}
}

func TestMeshMigrationTransfersStateBetweenLiveNodes(t *testing.T) {
	d := deploy(t, 2)
	n1, n2 := d.Nodes[0], d.Nodes[1]
	bank2 := d.Top.Banks[1]
	acct := d.Top.Accounts[1][0]

	// Real balances live only on node 2 before the move.
	if _, err := n2.Submit(acct, "deposit", 500); err != nil {
		t.Fatal(err)
	}

	// Command the owning node to migrate its whole bank group onto server 1.
	if err := n1.MigrateRemote(n2.ID(), bank2, 1); err != nil {
		t.Fatalf("commanded migration: %v", err)
	}

	// Node 1 now executes events for the moved group locally, against the
	// transferred state.
	fwdBefore := n1.Forwarded()
	res, err := n1.Submit(acct, "balance")
	if err != nil {
		t.Fatalf("post-migration balance: %v", err)
	}
	if res.(int) != 1500 {
		t.Fatalf("transferred balance = %v, want 1500", res)
	}
	if n1.Forwarded() != fwdBefore {
		t.Fatal("post-migration local read still forwarded")
	}
	// Both directory replicas agree on the new placement.
	if srv, _ := n1.Runtime().Directory().Locate(bank2); srv != 1 {
		t.Fatalf("node1 locates bank2 on %v, want 1", srv)
	}
	if srv, _ := n2.Runtime().Directory().Locate(bank2); srv != 1 {
		t.Fatalf("node2 locates bank2 on %v, want 1", srv)
	}
	// The source keeps serving: its submits now forward to node 1.
	res, err = n2.Submit(acct, "balance")
	if err != nil || res.(int) != 1500 {
		t.Fatalf("source-side balance = %v err=%v, want 1500", res, err)
	}
	// NIC accounting landed on both endpoints of both replicas.
	for i, n := range d.Nodes {
		for _, srv := range []transport.NodeID{1, 2} {
			s, ok := n.Runtime().Cluster().Server(srv)
			if !ok {
				t.Fatalf("node %d missing server %v", i+1, srv)
			}
			if s.TransferBytes() == 0 {
				t.Fatalf("node %d server %v has no transfer bytes", i+1, srv)
			}
		}
	}
	// The migration journal cleared from the authoritative store.
	if keys, _ := d.Stores[0].List("wal/migration/"); len(keys) != 0 {
		t.Fatalf("migration WAL not cleared: %v", keys)
	}
}

func TestStaleNodeForwardsThenRepairsItsDirectory(t *testing.T) {
	d := deploy(t, 3)
	n1, n2, n3 := d.Nodes[0], d.Nodes[1], d.Nodes[2]
	bank2 := d.Top.Banks[1]
	acct := d.Top.Accounts[1][0]

	// Move bank 2's group from server 2 to server 3; node 1 is not told.
	if err := n1.MigrateRemote(n2.ID(), bank2, 3); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// The command response carries no placement, so node 1 is genuinely
	// stale about the moved account.
	if srv, _ := n1.Runtime().Directory().Locate(acct); srv != 2 {
		t.Skipf("node1 already learned placement (%v); staleness scenario gone", srv)
	}

	// First call pays the forwarding hop: node1 → node2 (stale) → node3.
	n2fwd := n2.Forwarded()
	res, err := n1.Submit(acct, "balance")
	if err != nil || res.(int) != 1000 {
		t.Fatalf("stale-path balance = %v err=%v", res, err)
	}
	if n2.Forwarded() != n2fwd+1 {
		t.Fatalf("node2 forwarded %d times, want %d (the stale hop)", n2.Forwarded(), n2fwd+1)
	}
	// The response repaired node 1's cache for the account it touched: the
	// next call goes direct.
	if srv, _ := n1.Runtime().Directory().Locate(acct); srv != 3 {
		t.Fatalf("node1 did not learn new placement, still %v", srv)
	}
	if _, err := n1.Submit(acct, "balance"); err != nil {
		t.Fatal(err)
	}
	if n2.Forwarded() != n2fwd+1 {
		t.Fatalf("repaired node still routed through node2 (forwards=%d)", n2.Forwarded())
	}
	_ = n3
}

func TestShutdownFrame(t *testing.T) {
	d := deploy(t, 2)
	if err := d.Nodes[0].Shutdown(2); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-d.Nodes[1].Done():
	case <-time.After(time.Second):
		t.Fatal("shutdown frame did not close Done")
	}
}

func TestTCPDeploymentEndToEnd(t *testing.T) {
	// The full protocol over real TCP loopback sockets: remote submit,
	// remote store, commanded migration with mesh state transfer.
	mesh := transport.NewTCPMesh()
	d, err := Deploy(mesh, Topology{Nodes: 2})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer d.Close()
	if err := d.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	n1, n2 := d.Nodes[0], d.Nodes[1]
	acct := d.Top.Accounts[1][0]

	res, err := n1.Submit(acct, "deposit", 77)
	if err != nil || res.(int) != 1077 {
		t.Fatalf("tcp remote deposit = %v err=%v", res, err)
	}
	if err := n2.Manager().PersistMapping(); err != nil {
		t.Fatalf("tcp persist: %v", err)
	}
	if err := n1.MigrateRemote(2, d.Top.Banks[1], 1); err != nil {
		t.Fatalf("tcp migrate: %v", err)
	}
	res, err = n1.Submit(acct, "balance")
	if err != nil || res.(int) != 1077 {
		t.Fatalf("tcp post-migration balance = %v err=%v", res, err)
	}
}

// TestDeploymentMatchesSingleProcess replays the shared bank script on a
// 2-node deployment (every op submitted at node 1, so bank 2's ops cross
// the mesh) and compares every result against the single-process oracle —
// the node layer must be semantically invisible.
func TestDeploymentMatchesSingleProcess(t *testing.T) {
	d := deploy(t, 2)
	got := RunBankScript(d.Nodes[0].Submit, d.Top)
	want, _, err := BankDynamicOracle(2, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d differs: deployment=%q single-process=%q", i, got[i], want[i])
		}
	}
}

// Every payload-carrying request kind travels on the hot codec only: a gob
// payload, another kind's hot frame or nothing at all is a decode error
// (schema.ErrHotFrame) on each of them, not a second protocol — on a node and
// on a dedicated store server alike.
func TestRequestFramesAreHotCodecOnly(t *testing.T) {
	d := deploy(t, 1)
	srv, err := ServeStore(transport.NewInMemMesh(transport.NewSim(transport.SimConfig{})), StoreIDBase+1, cloudstore.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var gobPayload bytes.Buffer
	if err := gob.NewEncoder(&gobPayload).Encode(cloudstore.Op{Kind: cloudstore.OpGet, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	notify, err := (&schema.NotifyRec{Seq: 1}).MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	submit, err := (&schema.SubmitReq{Target: 1, Method: "m"}).MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	servers := []struct {
		who    string
		handle transport.Handler
		kinds  []string
	}{
		{"node", d.Nodes[0].handle, []string{KindSubmitBatch, KindStore, KindTransfer, KindTransferQuery, KindMigrate, KindReplicate}},
		{"store server", srv.handle, []string{KindStore}},
	}
	for _, s := range servers {
		for _, kind := range s.kinds {
			other := notify
			if kind == KindReplicate {
				other = submit
			}
			for name, payload := range map[string][]byte{"gob": gobPayload.Bytes(), "another kind's": other, "empty": nil} {
				if _, err := s.handle(context.Background(), 2, transport.Message{Kind: kind, Payload: payload}); !errors.Is(err, schema.ErrHotFrame) {
					t.Errorf("%s: %s answered a %s payload with %v; want ErrHotFrame", s.who, kind, name, err)
				}
			}
		}
	}
	// A lone event is a frame of one on node.submit.batch: the single-event
	// kind is gone, and a frame sent on it is refused as an unknown kind.
	if _, err := d.Nodes[0].handle(context.Background(), 2, transport.Message{Kind: "node.submit", Payload: submit}); err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
		t.Errorf("node.submit answered with %v; want an unknown frame kind", err)
	}
}
