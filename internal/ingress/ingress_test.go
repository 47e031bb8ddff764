package ingress_test

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aeon/internal/alloctest"
	"aeon/internal/core"
	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/transport"
)

func deployTCP(t testing.TB, nodes int) (*node.Deployment, *transport.TCPMesh) {
	t.Helper()
	mesh := transport.NewTCPMesh()
	d, err := node.Deploy(mesh, node.Topology{Nodes: nodes, EnableOps: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("deployment not ready: %v", err)
	}
	return d, mesh
}

// batchFrames reads how many submit frames n has handled off its
// admin plane, as an operator's scrape would.
func batchFrames(t *testing.T, n *node.Node) uint64 {
	t.Helper()
	var b bytes.Buffer
	if err := n.Ops().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "aeon_node_batch_frames_total "); ok {
			frames, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return frames
		}
	}
	t.Fatal("the node's exposition has no aeon_node_batch_frames_total")
	return 0
}

func dial(t testing.TB, mesh transport.Mesh, d *node.Deployment, cfg ingress.Config) *ingress.Client {
	t.Helper()
	if len(cfg.Nodes) == 0 {
		for _, n := range d.Nodes {
			cfg.Nodes = append(cfg.Nodes, n.ID())
		}
	}
	c, err := ingress.Dial(mesh, cfg)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestClientSubmitAcrossFleet pins the basic SDK contract over real TCP:
// deposits and balance reads against accounts spread over three nodes all
// succeed, whichever node each submit is first routed to, and the routing
// cache converges to the hosting node from response repair.
func TestClientSubmitAcrossFleet(t *testing.T) {
	d, mesh := deployTCP(t, 3)
	c := dial(t, mesh, d, ingress.Config{})

	for bi, accounts := range d.Top.Accounts {
		for ai, acct := range accounts {
			if _, err := c.Submit(acct, "deposit", 10*(bi+1)+ai); err != nil {
				t.Fatalf("deposit bank %d acct %d: %v", bi, ai, err)
			}
		}
	}
	for bi, accounts := range d.Top.Accounts {
		for ai, acct := range accounts {
			res, err := c.Submit(acct, "balance")
			if err != nil {
				t.Fatalf("balance bank %d acct %d: %v", bi, ai, err)
			}
			want := 1000 + 10*(bi+1) + ai
			if res.(int) != want {
				t.Fatalf("bank %d acct %d balance = %v, want %d", bi, ai, res, want)
			}
			// The account's dominator (its bank) lives on server bi+1; after
			// two submits the cache must route direct.
			if host, ok := c.Route(acct); !ok || host != transport.NodeID(bi+1) {
				t.Fatalf("route for bank %d acct %d = %v (ok=%v), want %d", bi, ai, host, ok, bi+1)
			}
		}
	}
}

// TestClientRouteRepairAfterMigration pins stale-route repair: after a
// group migrates, the client's cached route is wrong; the next submit pays
// one server-side forwarding hop, succeeds, and repairs the cache from the
// authoritative response so the submit after that goes direct.
func TestClientRouteRepairAfterMigration(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	c := dial(t, mesh, d, ingress.Config{})

	bank2 := d.Top.Banks[1]
	acct := d.Top.Accounts[1][0]
	if _, err := c.Submit(acct, "deposit", 5); err != nil {
		t.Fatalf("warm deposit: %v", err)
	}
	if host, ok := c.Route(acct); !ok || host != 2 {
		t.Fatalf("route before migration = %v (ok=%v), want 2", host, ok)
	}

	// Move bank 2's whole group to server 1; the client cache is now stale.
	if err := d.Nodes[0].MigrateRemote(2, bank2, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	fwdBefore := d.Nodes[1].Forwarded()
	res, err := c.Submit(acct, "balance")
	if err != nil {
		t.Fatalf("submit with stale route: %v", err)
	}
	if res.(int) != 1005 {
		t.Fatalf("balance after migration = %v, want 1005", res)
	}
	if got := d.Nodes[1].Forwarded() - fwdBefore; got != 1 {
		t.Fatalf("stale submit paid %d forwards, want exactly 1", got)
	}
	if host, ok := c.Route(acct); !ok || host != 1 {
		t.Fatalf("route after repair = %v (ok=%v), want 1", host, ok)
	}
	// Repaired: the next submit goes direct, no forwarding.
	fwdBefore = d.Nodes[1].Forwarded()
	if _, err := c.Submit(acct, "balance"); err != nil {
		t.Fatalf("repaired submit: %v", err)
	}
	if got := d.Nodes[1].Forwarded() - fwdBefore; got != 0 {
		t.Fatalf("repaired route still forwarded %d times", got)
	}
}

// TestClientTypedErrors pins that handler failures come back as typed
// sentinels across the wire, not flattened strings.
func TestClientTypedErrors(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	c := dial(t, mesh, d, ingress.Config{})

	if _, err := c.Submit(ownership.ID(1<<40), "deposit", 1); !errors.Is(err, core.ErrUnknownContext) {
		t.Fatalf("unknown target: %v, want ErrUnknownContext", err)
	}
	if _, err := c.Submit(d.Top.Accounts[0][0], "no-such-method"); !errors.Is(err, core.ErrUnknownMethod) {
		t.Fatalf("unknown method: %v, want ErrUnknownMethod", err)
	}
	// App-level failures surface their message.
	if _, err := c.Submit(d.Top.Accounts[0][0], "withdraw", 1<<30); err == nil {
		t.Fatalf("overdraft withdraw succeeded")
	}
}

// TestClientPipelinedFutures pins the async path: many in-flight deposits on
// one client — far more than could run with one outstanding call per
// connection — all land, and the final balance accounts for every one.
func TestClientPipelinedFutures(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	c := dial(t, mesh, d, ingress.Config{Window: 64})

	acct := d.Top.Accounts[1][0]
	const deposits = 300
	futures := make([]*ingress.Future, 0, deposits)
	for i := 0; i < deposits; i++ {
		futures = append(futures, c.Go(acct, "deposit", 1))
	}
	for i, f := range futures {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("deposit %d: %v", i, err)
		}
	}
	res, err := c.Submit(acct, "balance")
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 1000+deposits {
		t.Fatalf("balance = %v, want %d", res, 1000+deposits)
	}
}

// TestClientConcurrentClientsRace is the multi-client -race stress: several
// clients pipeline concurrent submits to disjoint accounts over the same
// fleet; every response must belong to its own request (distinct amounts,
// verified balances).
func TestClientConcurrentClientsRace(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	const clients = 3
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		c := dial(t, mesh, d, ingress.Config{})
		acct := d.Top.Accounts[ci%2][ci%4]
		wg.Add(1)
		go func(ci int, c *ingress.Client, acct ownership.ID) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := c.Submit(acct, "deposit", 1); err != nil {
					errs <- fmt.Errorf("client %d deposit %d: %w", ci, i, err)
					return
				}
			}
		}(ci, c, acct)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClientOnInMemMesh pins mesh-agnosticism: the SDK works over the
// in-memory mesh (CallBatch expressed as concurrent calls), so
// single-process tools and tests can use the same client code path.
func TestClientOnInMemMesh(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := node.Deploy(mesh, node.Topology{Nodes: 2})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	c := dial(t, mesh, d, ingress.Config{})
	if _, err := c.Submit(d.Top.Accounts[0][0], "deposit", 3); err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(d.Top.Accounts[0][0], "balance")
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 1003 {
		t.Fatalf("balance = %v, want 1003", res)
	}
}

// TestSubmitAllocBudget is the SDK's allocation gate for the interactive
// path: one Client.Submit of a bank deposit to a TCP node, both ends counted
// — what the codecs and the handler API box or slice on either end, and the
// two payload copies the mux makes — and nothing for carrying the call: no
// context, no timer, no channel, no kind string, and no slice for the frame
// of one that Submit sends through the batch path.
func TestSubmitAllocBudget(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped buffer is rebuilt from scratch")
	}
	const budget = 5
	d, mesh := deployTCP(t, 1)
	c := dial(t, mesh, d, ingress.Config{})
	acct := d.Top.Accounts[0][0]
	submit := func() {
		if _, err := c.Submit(acct, "deposit", 1); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		submit() // dial, learn the route, grow the pooled buffers
	}
	got := testing.AllocsPerRun(2000, submit)
	t.Logf("one Submit allocates %.3f objects", got)
	if got > budget {
		t.Fatalf("one Submit allocates %.2f objects, budget %d", got, budget)
	}
}
