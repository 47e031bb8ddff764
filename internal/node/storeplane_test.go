package node

// Store-plane tests: wire-level sentinel fidelity for every store op, the
// RemoteStore lifecycle context, the sharded/replicated deployment against
// the single-process oracle, and the store-failover chaos smoke (kill a
// partition's primary store server mid-traffic; the fleet must converge
// with no split brain).

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/alloctest"
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/migration"
	"aeon/internal/ownership"
	"aeon/internal/replication"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// storeClient starts a node on mesh that keeps no store of its own: its
// store handle is the RemoteStore the fleet wires, calling the store server
// at StoreIDBase+1 under the node's lifecycle context.
func storeClient(t *testing.T, mesh transport.Mesh) *Node {
	t.Helper()
	s := schema.New()
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(s, ownership.NewGraph(), cluster.New(transport.NewSim(transport.SimConfig{})), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := Start(mesh, Config{ID: 999, Runtime: rt, StoreNode: StoreIDBase + 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close(); rt.Close() })
	return n
}

// storeWireRig is a StoreServer and a node's RemoteStore on one in-memory
// mesh: every op crosses the full encode→handle→serveStore→schema.Err
// path.
func storeWireRig(t *testing.T) (*cloudstore.Store, *RemoteStore) {
	t.Helper()
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	st := cloudstore.New()
	srv, err := ServeStore(mesh, StoreIDBase+1, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return st, storeClient(t, mesh).Store().(*RemoteStore)
}

// TestStoreWireSentinelRoundTrip pins that every cloudstore sentinel survives
// the RemoteStore → handler → RemoteStore exchange. One op per sentinel is
// the whole table: the frame is the same cloudstore.Op whatever its kind
// (kind × fence epoch is checked where the fence lives, at Store.Do, and
// every kind crosses the wire in cloudstore's TestWireRoundTripEveryKind).
func TestStoreWireSentinelRoundTrip(t *testing.T) {
	fenced := func(st *cloudstore.Store) {
		_, _ = st.Do(cloudstore.Op{Kind: cloudstore.OpPromote, Fence: &cloudstore.Fence{Part: 3, Epoch: 9}})
	}
	for _, tc := range []struct {
		name  string
		setup func(st *cloudstore.Store)
		op    cloudstore.Op
		want  error
		// fence is the accepted epoch a refusal must carry back.
		fence uint64
	}{
		{"Unavailable", (*cloudstore.Store).Fail,
			cloudstore.Op{Kind: cloudstore.OpGet, Key: "k"}, cloudstore.ErrUnavailable, 0},
		{"NotFound", nil,
			cloudstore.Op{Kind: cloudstore.OpGet, Key: "ghost"}, cloudstore.ErrNotFound, 0},
		{"VersionMismatch", nil,
			cloudstore.Op{Kind: cloudstore.OpCAS, Key: "ghost", Expect: 3}, cloudstore.ErrVersionMismatch, 0},
		// The failover contract: a fenced Promote still delivers the
		// accepted epoch, so the client adopts the newer view without a
		// second round trip.
		{"Fenced/Promote", fenced,
			cloudstore.Op{Kind: cloudstore.OpPromote, Fence: &cloudstore.Fence{Part: 3, Epoch: 4}}, cloudstore.ErrFenced, 9},
		// A fence whose fields are all zero must reach the replica as a
		// fence, not as "unfenced".
		{"Fenced/ZeroEpoch",
			func(st *cloudstore.Store) {
				_, _ = st.Do(cloudstore.Op{Kind: cloudstore.OpPromote, Fence: &cloudstore.Fence{Part: 0, Epoch: 2}})
			},
			cloudstore.Op{Kind: cloudstore.OpPut, Key: "k", Fence: &cloudstore.Fence{}}, cloudstore.ErrFenced, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, r := storeWireRig(t)
			if tc.setup != nil {
				tc.setup(st)
			}
			res, err := r.Do(tc.op)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v; want %v", err, tc.want)
			}
			if res.Version != tc.fence {
				t.Fatalf("refusal carried fence %d; want %d", res.Version, tc.fence)
			}
		})
	}
}

// codeSentinels names, for every code of the table, the sentinel a caller
// tests with errors.Is (the code itself where no package exports one). It is
// the README "Errors" table's sentinel column under test.
var codeSentinels = map[schema.Code]error{
	schema.CodeApp:                  schema.CodeApp,
	schema.CodeUnknown:              schema.CodeUnknown,
	schema.CodeUnknownContext:       core.ErrUnknownContext,
	schema.CodeUnknownMethod:        core.ErrUnknownMethod,
	schema.CodeNotHosted:            core.ErrNotLocal,
	schema.CodeTooManyHops:          ErrTooManyHops,
	schema.CodeBackpressure:         core.ErrBackpressure,
	schema.CodeClosed:               core.ErrClosed,
	schema.CodeMigrating:            migration.ErrAlreadyMigrating,
	schema.CodeAcquireTimeout:       core.ErrAcquireTimeout,
	schema.CodeReplicaLagging:       replication.ErrReplicaLagging,
	schema.CodeStoreNotFound:        cloudstore.ErrNotFound,
	schema.CodeStoreVersionMismatch: cloudstore.ErrVersionMismatch,
	schema.CodeStoreUnavailable:     cloudstore.ErrUnavailable,
	schema.CodeStoreFenced:          cloudstore.ErrFenced,
	schema.CodeLinkPartitioned:      transport.ErrPartitioned,
	schema.CodeLinkClosed:           transport.ErrClosed,
	schema.CodeLinkDropped:          transport.ErrDropped,
	schema.CodeLinkNoNode:           transport.ErrNodeUnknown,
}

// failingDoer answers every op with one error.
type failingDoer struct{ err error }

func (d failingDoer) Do(cloudstore.Op) (cloudstore.Result, error) {
	return cloudstore.Result{}, d.err
}

// TestEveryCodeSurvivesEveryFrame sends each code of the table, wrapped the
// way its producer wraps it, through the four frames that carry errors —
// SubmitResp, SubmitBatchResp and the store Reply in-band, and the mux
// error frame a failing mesh handler's error rides — and requires errors.Is
// against the original sentinel and the retry class to hold on the far side.
// It fails when a code is added without a sentinel row.
func TestEveryCodeSurvivesEveryFrame(t *testing.T) {
	// A mesh handler that fails with whatever error the test is on.
	var handlerErr error
	mesh := transport.NewTCPMesh()
	failing, ferr := mesh.Attach(1, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, handlerErr
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer failing.Close()
	caller, ferr := mesh.Attach(2, nil)
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer caller.Close()

	for c := schema.CodeOK + 1; c < schema.NumCodes; c++ {
		sentinel, ok := codeSentinels[c]
		if !ok {
			t.Errorf("code %d (%s) has no row in codeSentinels", c, c.Name())
			continue
		}
		err := fmt.Errorf("ctx#7 on node3: %w", sentinel)
		if schema.CodeOf(err) != c {
			t.Errorf("%s: sentinel %v carries code %s", c.Name(), sentinel, schema.CodeOf(err).Name())
			continue
		}
		arrived := map[string]error{}

		single := schema.SubmitResp{Host: 3, Code: schema.CodeOf(err), Err: err.Error()}
		b, merr := single.MarshalWire(nil)
		if merr != nil {
			t.Fatal(merr)
		}
		var gotSingle schema.SubmitResp
		if uerr := gotSingle.UnmarshalWire(b); uerr != nil {
			t.Fatal(uerr)
		}
		arrived["SubmitResp"] = schema.Err(gotSingle.Code, gotSingle.Err)

		batch := schema.SubmitBatchResp{Outcomes: []schema.BatchOutcome{{Result: 1, Host: 3}, schema.BatchOutcome(single)}}
		if b, merr = batch.MarshalWire(nil); merr != nil {
			t.Fatal(merr)
		}
		var gotBatch schema.SubmitBatchResp
		if uerr := gotBatch.UnmarshalWire(b); uerr != nil {
			t.Fatal(uerr)
		}
		if ok := gotBatch.Outcomes[0]; ok.Code != schema.CodeOK || ok.Err != "" || ok.Result != 1 {
			t.Errorf("%s: the failed slot's neighbour arrived as %+v", c.Name(), ok)
		}
		arrived["SubmitBatchResp"] = schema.Err(gotBatch.Outcomes[1].Code, gotBatch.Outcomes[1].Err)

		sent, serr := serveStore(failingDoer{err}.Do, (&cloudstore.Op{Kind: cloudstore.OpGet, Key: "k"}).AppendWire(nil))
		if serr != nil {
			t.Fatal(serr)
		}
		var gotStore cloudstore.Reply
		if derr := gotStore.UnmarshalWire(sent.Payload); derr != nil {
			t.Fatal(derr)
		}
		arrived["store Reply"] = schema.Err(gotStore.Code, gotStore.Err)

		handlerErr = err
		_, back := caller.Call(context.Background(), 1, transport.Message{Kind: "q"})
		var remote *transport.RemoteError
		if !errors.As(back, &remote) || remote.Node != 1 {
			t.Fatalf("%s: a handler's error arrived as %v, want a RemoteError from node 1", c.Name(), back)
		}
		arrived["mux error frame"] = schema.Err(remote.Code, remote.Msg)
		if !errors.Is(back, sentinel) {
			t.Errorf("%s: errors.Is does not see %v through %v", c.Name(), sentinel, back)
		}

		for frame, back := range arrived {
			if !errors.Is(back, sentinel) || schema.CodeOf(back).Class() != c.Class() || back.Error() != err.Error() {
				t.Errorf("%s through %s: arrived as %v (code %s, class %s); want errors.Is %v, class %s",
					c.Name(), frame, back, schema.CodeOf(back).Name(), schema.CodeOf(back).Class(), sentinel, c.Class())
			}
		}
	}
}

// TestRemoteStoreHonorsBaseContext pins that a node's store calls derive
// from its lifecycle context: Node.Close cancels a call in flight at once,
// instead of leaving it to wait out callTimeout behind a peer that never
// answers.
func TestRemoteStoreHonorsBaseContext(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	entered := make(chan struct{})
	// The store answers the node's boot recovery reads, then goes silent.
	var mute atomic.Bool
	st := cloudstore.New()
	silent, err := mesh.Attach(StoreIDBase+1, func(ctx context.Context, _ transport.NodeID, req transport.Message) (transport.Message, error) {
		if !mute.Load() {
			return serveStore(st.Do, req.Payload)
		}
		close(entered)
		<-ctx.Done()
		return transport.Message{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	n := storeClient(t, mesh)
	mute.Store(true)
	errc := make(chan error, 1)
	go func() {
		_, err := n.Store().Put("k", nil)
		errc <- err
	}()
	<-entered
	_ = n.Close()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
}

// deployStorePlane builds an n-node replicated deployment whose cloud store
// is the sharded, replicated store plane (parts × StoreRF store servers)
// over the given mesh.
func deployStorePlane(t *testing.T, mesh transport.Mesh, nodes, parts int) *Deployment {
	t.Helper()
	d, err := Deploy(mesh, Topology{Nodes: nodes, Replicate: true, StoreParts: parts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStorePlaneDeploymentMatchesOracle runs the full static + dynamic
// workload — including runtime context creation sequenced through the
// replication log, whose CAS commit point now lives on one partition of the
// store plane — and diffs every outcome against the single-process oracle.
func TestStorePlaneDeploymentMatchesOracle(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d := deployStorePlane(t, mesh, 3, 2)

	n1 := d.Nodes[0]
	static := RunBankScript(n1.Submit, d.Top)
	dynamic := RunBankDynamicScript(n1.Submit, d.Top)
	wantStatic, wantDynamic, err := BankDynamicOracle(3, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffScripts(t, "static", static, wantStatic)
	diffScripts(t, "dynamic", dynamic, wantDynamic)

	// The plane really is sharded: both partitions' primaries hold keys.
	for p := 0; p < 2; p++ {
		keys, err := d.StoreBackends[StoreRF*p].List("")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 0 {
			t.Fatalf("partition %d primary holds no keys; keyspace not sharded", p)
		}
	}
}

// replogPartition reports which of n partitions owns the replication log's
// record keys (the CAS-sequenced commit point — the hottest store state).
func replogPartition(n int) int {
	probe := cloudstore.NewPartitioned(make([]cloudstore.Doer, n)...)
	return probe.PartitionOf("replog/rec/00000000000000000001")
}

// TestStoreFailoverChaos is the store-loss chaos smoke: under a fault-
// injecting mesh, kill the store primary of the partition serving the
// replication log mid-traffic. Writes must resume through the promoted
// follower (CAS-fenced failover), runtime context creation must keep
// sequencing through the log, and the full outcome stream must still match
// the single-process oracle — no split brain, no lost acks.
func TestStoreFailoverChaos(t *testing.T) {
	net := transport.NewSim(transport.SimConfig{})
	fm := transport.NewFaultyMesh(transport.NewInMemMesh(net))
	d := deployStorePlane(t, fm, 3, 2)
	n1 := d.Nodes[0]

	// Phase 1: static traffic with the full plane up.
	static := RunBankScript(n1.Submit, d.Top)

	// Mid-traffic fault: first sever node 1 from the other partition's
	// primary (transport fault, not a crash) so its client must fail over
	// on a dropped call…
	p := replogPartition(2)
	other := 1 - p
	otherPrimary := StoreIDBase + transport.NodeID(StoreRF*other+1)
	fm.Drop(1, otherPrimary)
	// …then kill the replog partition's primary outright: its endpoint
	// detaches, every in-flight and future call fails fast, and the
	// follower must be promoted by whichever client trips first.
	if srv := d.StoreServerFor(StoreIDBase + transport.NodeID(StoreRF*p+1)); srv != nil {
		_ = srv.Close()
	} else {
		t.Fatalf("no store server for partition %d primary", p)
	}

	// Phase 2: dynamic traffic through the degraded plane — context
	// creation CASes records into the replication log via the promoted
	// follower.
	dynamic := RunBankDynamicScript(n1.Submit, d.Top)

	wantStatic, wantDynamic, err := BankDynamicOracle(3, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffScripts(t, "static", static, wantStatic)
	diffScripts(t, "dynamic", dynamic, wantDynamic)

	// The replog partition failed over: its follower's fence epoch moved
	// past the boot epoch, and the follower holds the post-kill records.
	fol := d.StoreBackends[StoreRF*p+1]
	fence, err := fol.Do(cloudstore.Op{Kind: cloudstore.OpFenceEpoch, Fence: &cloudstore.Fence{Part: p}})
	if err != nil {
		t.Fatal(err)
	}
	if fence.Version < 2 {
		t.Fatalf("replog partition fence epoch = %d; follower was never promoted", fence.Version)
	}
	keys, err := fol.List("replog/rec/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("promoted follower holds no replication log records")
	}

	// No split brain: the dead primary's store must not have acknowledged
	// writes the promoted follower never saw. Every record on the dead
	// primary past the follower's set would be an acked-but-lost write;
	// the fence makes that impossible, so the follower's log is a superset.
	dead := d.StoreBackends[StoreRF*p]
	deadKeys, err := dead.List("replog/rec/")
	if err != nil {
		t.Fatal(err)
	}
	folSet := make(map[string]bool, len(keys))
	for _, k := range keys {
		folSet[k] = true
	}
	for _, k := range deadKeys {
		if !folSet[k] {
			t.Fatalf("dead primary holds %s which the promoted follower never saw — a split-brain ack window", k)
		}
	}

	// The stale-primary fence holds across the mesh: a client still acting
	// for the boot view has its fenced apply refused by the promoted
	// follower.
	_, err = fol.Do(cloudstore.Op{
		Kind:   cloudstore.OpApply,
		Fence:  &cloudstore.Fence{Part: p, Epoch: 1},
		Commit: cloudstore.Commit{Sets: []cloudstore.KV{{Key: "rogue", Val: nil, Ver: 1 << 40}}},
	})
	if !errors.Is(err, cloudstore.ErrFenced) {
		t.Fatalf("stale-epoch apply err = %v; want ErrFenced", err)
	}

	// Heal the dropped link; traffic keeps flowing on the converged view.
	fm.Heal(1, otherPrimary)
	if _, err := n1.Submit(d.Top.Accounts[0][0], "deposit", 1); err != nil {
		t.Fatalf("post-chaos submit: %v", err)
	}
}

// TestStorePlaneTCP runs the sharded plane over real TCP loopback sockets:
// store servers and nodes in one process but separate sockets, the same
// wiring cmd/aeon-node uses.
func TestStorePlaneTCP(t *testing.T) {
	mesh := transport.NewTCPMesh()
	d := deployStorePlane(t, mesh, 2, 2)
	n1 := d.Nodes[0]
	static := RunBankScript(n1.Submit, d.Top)
	wantStatic, _, err := BankDynamicOracle(2, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	diffScripts(t, "static", static, wantStatic)
}

// TestStorePlaneDiskBackend runs the replicated workload over disk-backed
// store servers, then reopens one journal and checks the state survived.
func TestStorePlaneDiskBackend(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	dir := t.TempDir()
	d, err := Deploy(mesh, Topology{Nodes: 2, Replicate: true, StoreParts: 2, StoreBackend: "disk:" + dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WaitReady(10 * time.Second); err != nil {
		d.Close()
		t.Fatal(err)
	}
	// The dynamic script writes through the store plane (replication-log
	// records, mapping entries); the static one alone would leave the
	// journals empty.
	static := RunBankScript(d.Nodes[0].Submit, d.Top)
	dynamic := RunBankDynamicScript(d.Nodes[0].Submit, d.Top)
	wantStatic, wantDynamic, oerr := BankDynamicOracle(2, 4, 1000)
	if oerr != nil {
		d.Close()
		t.Fatal(oerr)
	}
	diffScripts(t, "static", static, wantStatic)
	diffScripts(t, "dynamic", dynamic, wantDynamic)
	// The nodes close first: their close-time checkpoints are journaled too.
	for _, n := range d.Nodes {
		_ = n.Close()
	}
	wantKeys := make([]int, 2)
	for p := 0; p < 2; p++ {
		keys, err := d.StoreBackends[StoreRF*p].List("")
		if err != nil {
			d.Close()
			t.Fatal(err)
		}
		wantKeys[p] = len(keys)
	}
	d.Close()

	// Reopen each partition primary's journal: the replayed state must
	// match what the live backend held, and the plane as a whole must have
	// persisted something.
	total := 0
	for p := 0; p < 2; p++ {
		re, err := cloudstore.OpenDisk(fmt.Sprintf("%s/p%d-r0", dir, p))
		if err != nil {
			t.Fatal(err)
		}
		keys, err := re.List("")
		re.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != wantKeys[p] {
			t.Fatalf("partition %d journal replay found %d keys; want %d", p, len(keys), wantKeys[p])
		}
		total += len(keys)
	}
	if total == 0 {
		t.Fatal("no partition journal holds any keys; the workload never hit the disk backend")
	}
}

// TestStoreExchangeAllocBudget is the store plane's allocation gate: one put
// and one get of a 200-byte value through RemoteStore → in-memory mesh →
// StoreServer allocate 15 objects between them — per exchange the call's
// context and timer, the key and value copied out of the frame, the store's
// own copy — and nothing for the codec's machinery or the reply buffer,
// which comes from the frame-buffer pool and goes back once RemoteStore.Do
// has decoded it (18 before the pool served it). (Under gob the codec alone
// made 537 objects per exchange: type descriptors compiled anew for every
// frame.)
func TestStoreExchangeAllocBudget(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped buffer is rebuilt from scratch")
	}
	const budget = 15
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	srv, err := ServeStore(mesh, StoreIDBase+1, cloudstore.New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := storeClient(t, mesh).Store()
	key, val := "wal/group/000042", make([]byte, 200)
	pair := func() {
		if _, err := r.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if got, _, err := r.Get(key); err != nil || len(got) != len(val) {
			t.Fatalf("get = %d bytes, %v", len(got), err)
		}
	}
	for i := 0; i < 8; i++ {
		pair() // warm the frame-buffer pool
	}
	if got := testing.AllocsPerRun(200, pair); got > budget {
		t.Fatalf("a put+get pair allocated %v objects; budget %d", got, budget)
	}
}
