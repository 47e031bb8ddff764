package node

import (
	"strings"
	"testing"
	"time"

	"aeon/internal/schema"
	"aeon/internal/transport"
)

// TestOpsPlaneNodeExposition pins the node-side instrumentation sweep: after
// local and forwarded traffic, every subsystem family the ops plane promises
// shows up in one Prometheus scrape of a node registry, the executed/
// forwarded counters are live, and health reports every subsystem ready.
func TestOpsPlaneNodeExposition(t *testing.T) {
	d := deployOps(t, 2)
	n1, n2 := d.Nodes[0], d.Nodes[1]

	if _, err := n1.Submit(d.Top.Accounts[0][0], "deposit", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.Submit(d.Top.Accounts[1][0], "deposit", 1); err != nil {
		t.Fatal(err) // bank 2 is hosted on node 2: crosses the mesh
	}

	var b strings.Builder
	if err := n1.Ops().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, family := range []string{
		"aeon_node_submits_executed_total",
		"aeon_node_submits_forwarded_total",
		"aeon_node_batch_frames_total",
		"aeon_node_submit_seconds",
		"aeon_node_forward_seconds",
		"aeon_event_latency_seconds",
		"aeon_events_completed_total",
		"aeon_exec_queue_depth",
		"aeon_mux_dropped_responses_total",
		"aeon_mux_frames_written_total",
		"aeon_mux_socket_writes_total",
		"aeon_mux_socket_reads_total",
		"aeon_migration_groups_total",
		"aeon_migration_stop_seconds",
		"aeon_store_op_seconds",
	} {
		if !strings.Contains(out, "# TYPE "+family) {
			t.Fatalf("node exposition missing family %s:\n%s", family, out)
		}
	}
	// Node 1 executed its own submit in-process (no frame, no counter); the
	// cross-mesh one shows as a forward here and an execute on node 2.
	if !strings.Contains(out, "aeon_node_submits_forwarded_total 1") {
		t.Fatalf("forwarded counter not live:\n%s", out)
	}
	if ok, subs := n1.Ops().Health(); !ok {
		t.Fatalf("node 1 unhealthy: %v", subs)
	}
	if ok, _ := n2.Ops().Health(); !ok {
		t.Fatal("node 2 unhealthy")
	}

	// The forward landed on node 2's latency histogram via its registry too.
	var b2 strings.Builder
	if err := n2.Ops().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "aeon_node_submits_executed_total 1") {
		t.Fatalf("node 2 executed counter not live:\n%s", b2.String())
	}

	// Node 2 reaches the store over the mesh: each op lands on its store
	// round-trip histogram. Node 1 serves the store itself and records none.
	before, _, _, _ := n2.Ops().Summary("aeon_store_op_seconds")
	if _, err := n2.Store().Put("ops/k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n2.Store().Get("ops/missing"); err == nil {
		t.Fatal("get of a missing key succeeded")
	}
	if after, _, _, ok := n2.Ops().Summary("aeon_store_op_seconds"); !ok || after != before+2 {
		t.Fatalf("node 2 store histogram count %d → %d after two ops (one failed)", before, after)
	}
	if local, _, _, _ := n1.Ops().Summary("aeon_store_op_seconds"); local != 0 {
		t.Fatalf("node 1 serves the store locally but recorded %d remote ops", local)
	}
}

// TestOpsPlaneErrorsByCode pins aeon_errors_total: a frame's failed outcomes
// are counted under their code's stable name — here two unknown targets, one
// handler failure (an overdraft) and nothing else.
func TestOpsPlaneErrorsByCode(t *testing.T) {
	d := deployOps(t, 1)
	n, acct := d.Nodes[0], d.Top.Accounts[0][0]
	req := schema.SubmitBatchReq{Events: []schema.BatchEvent{
		{Target: acct, Method: "deposit", Args: []any{1}},
		{Target: 90001, Method: "deposit", Args: []any{1}},
		{Target: acct, Method: "withdraw", Args: []any{1 << 30}},
		{Target: 90002, Method: "balance"},
	}}
	handleBatch(t, n, &req)
	var b strings.Builder
	if err := n.Ops().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# TYPE aeon_errors_total counter",
		`aeon_errors_total{code="unknown-context"} 2`,
		`aeon_errors_total{code="app"} 1`,
		`aeon_errors_total{code="link-partitioned"} 0`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Fatalf("exposition lacks %q:\n%s", line, b.String())
		}
	}
}

// TestOpsPlaneMigrationEvents pins the structural event feed: a commanded
// mesh migration leaves migration.start and migration.commit on the source
// node's feed and transfer.install on the destination's.
func TestOpsPlaneMigrationEvents(t *testing.T) {
	d := deployOps(t, 2)
	n1, n2 := d.Nodes[0], d.Nodes[1]
	bank2 := d.Top.Banks[1] // hosted on node 2

	if err := n1.MigrateRemote(n2.ID(), bank2, 1); err != nil {
		t.Fatalf("commanded migration: %v", err)
	}

	types := func(n *Node) map[string]int {
		events, _, _, _ := n.Ops().EventsSince(0)
		m := map[string]int{}
		for _, ev := range events {
			m[ev.Type]++
		}
		return m
	}
	src, dst := types(n2), types(n1)
	if src["migration.start"] == 0 || src["migration.commit"] == 0 {
		t.Fatalf("source feed missing migration events: %v", src)
	}
	if dst["transfer.install"] == 0 {
		t.Fatalf("destination feed missing transfer.install: %v", dst)
	}
	// The stop-window histogram saw the migration's full-stop.
	if eng := n2.mgr.Engine(); eng.StopTime.Count() == 0 {
		t.Fatal("stop-window histogram empty after migration")
	}
}

// deployOps builds an n-node in-memory deployment with per-node registries.
func deployOps(t *testing.T, n int) *Deployment {
	t.Helper()
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := Deploy(mesh, Topology{Nodes: n, EnableOps: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestOpsPlaneRestartEvents pins the lifecycle feed: Start leaves
// node.recover on the node's feed and Close node.checkpoint, each with the
// contexts it covered and its duration. A fresh node restores nothing; a
// node that ran no writing event checkpoints nothing; a restarted one
// restores what its previous incarnation checkpointed.
func TestOpsPlaneRestartEvents(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	top := Topology{Nodes: 2, EnableOps: true}
	d, err := Deploy(mesh, top)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fields := func(n *Node, typ string) map[string]any {
		t.Helper()
		events, _, _, _ := n.Ops().EventsSince(0)
		for _, ev := range events {
			if ev.Type == typ {
				if _, ok := ev.Fields["us"].(int64); !ok {
					t.Fatalf("%s on node %v carries no duration: %v", typ, n.ID(), ev.Fields)
				}
				return ev.Fields
			}
		}
		t.Fatalf("node %v feed lacks %s", n.ID(), typ)
		return nil
	}
	old := d.Nodes[1]
	if got := fields(old, "node.recover")["contexts"]; got != 0 {
		t.Fatalf("fresh node restored %v contexts, want 0", got)
	}
	if _, err := old.Submit(d.Top.Accounts[1][0], "balance"); err != nil {
		t.Fatal(err)
	}
	n2 := restartNode(t, d, mesh, top, 2)
	if got := fields(old, "node.checkpoint")["contexts"]; got != 0 {
		t.Fatalf("a node that only read checkpointed %v contexts, want 0", got)
	}
	old = n2
	if _, err := old.Submit(d.Top.Accounts[1][0], "deposit", 1); err != nil {
		t.Fatal(err)
	}
	n2 = restartNode(t, d, mesh, top, 2)
	saved := fields(old, "node.checkpoint")["contexts"]
	if n, _ := saved.(int); n < len(d.Top.Accounts[1]) {
		t.Fatalf("close checkpointed %v contexts, want node 2's %d accounts at least", saved, len(d.Top.Accounts[1]))
	}
	if got := fields(n2, "node.recover")["contexts"]; got != saved {
		t.Fatalf("restart restored %v contexts, the close checkpointed %v", got, saved)
	}
}
