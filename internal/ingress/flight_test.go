package ingress_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aeon/internal/alloctest"
	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// spread is n deposits of 1 dealt round-robin over the first nodes nodes'
// accounts: event i lands on node i%nodes+1.
func spread(d *node.Deployment, nodes, n int) []ingress.BatchItem {
	items := make([]ingress.BatchItem, n)
	for i := range items {
		accts := d.Top.Accounts[i%nodes]
		items[i] = ingress.BatchItem{Target: accts[i/nodes%len(accts)], Method: "deposit", Args: []any{1}}
	}
	return items
}

// TestFlightLargerThanWindow pins the window rule for a flight: one that
// sends a node more frames than the connection's in-flight window awaits its
// own oldest calls to make room, instead of waiting on slots only it would
// free. At MaxBatch 1, 1,029 deposits are MuxWindow+5 frames to one node, and
// two concurrent batches of 600 share one window; every deposit must land,
// and long before the call timeout.
func TestFlightLargerThanWindow(t *testing.T) {
	d, mesh := deployTCP(t, 1)
	c := dial(t, mesh, d, ingress.Config{MaxBatch: 1})
	acct := d.Top.Accounts[0][0]
	deposits := func(n int) []ingress.BatchItem {
		items := make([]ingress.BatchItem, n)
		for i := range items {
			items[i] = ingress.BatchItem{Target: acct, Method: "deposit", Args: []any{1}}
		}
		return items
	}
	start := time.Now()
	for i, r := range c.SubmitBatch(deposits(transport.MuxWindow + 5)) {
		if r.Err != nil {
			t.Fatalf("deposit %d of a flight larger than the window: %v", i, r.Err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range c.SubmitBatch(deposits(600)) {
				if r.Err != nil {
					errs <- fmt.Errorf("deposit %d of one of two concurrent flights: %w", i, r.Err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("the flights took %v", took)
	}
	if bal, err := c.Submit(acct, "balance"); err != nil || bal.(int) != 1000+transport.MuxWindow+5+1200 {
		t.Fatalf("balance = %v (%v), want %d", bal, err, 1000+transport.MuxWindow+5+1200)
	}
}

// TestSubmitBatchSpreadAllocBudget is the allocation gate for a batch spread
// over several nodes: its frames leave as one flight from the caller's
// goroutine, so a warm 96-event SubmitBatch over three TCP nodes may allocate
// at most what the same batch to one node does plus 2 per extra node (the
// extra node's frame decode on the serving side among them). Both ends are
// counted. (11 against 3 when every extra node cost a goroutine.)
func TestSubmitBatchSpreadAllocBudget(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped buffer is rebuilt from scratch")
	}
	d, mesh := deployTCP(t, 3)
	c := dial(t, mesh, d, ingress.Config{})
	allocs := func(items []ingress.BatchItem) float64 {
		submit := func() {
			for i, r := range c.SubmitBatch(items) {
				if r.Err != nil {
					t.Fatalf("deposit %d: %v", i, r.Err)
				}
			}
		}
		for range 100 {
			submit() // learn the routes, grow the pooled scratch and buffers
		}
		return testing.AllocsPerRun(500, submit)
	}
	one, three := allocs(spread(d, 1, 96)), allocs(spread(d, 3, 96))
	t.Logf("a warm 96-event SubmitBatch allocates %.2f objects to one node, %.2f spread over three", one, three)
	if budget := one + 2*2; three > budget {
		t.Fatalf("a batch spread over three nodes allocates %.2f objects; budget is %.2f", three, budget)
	}
}

// checkIsolated checks a spread batch's outcomes once node broken (0 for
// none) went bad: each of its events failed on its own with a code that says
// the outcome is unknown, and every other event succeeded.
func checkIsolated(t *testing.T, res []ingress.BatchResult, nodes int, broken transport.NodeID, want error) {
	t.Helper()
	failed := 0
	for i, r := range res {
		if transport.NodeID(i%nodes+1) != broken {
			if r.Err != nil {
				t.Errorf("event %d, to a healthy node: %v", i, r.Err)
			}
			continue
		}
		failed++
		switch {
		case r.Err == nil:
			t.Errorf("event %d, to the broken node, succeeded", i)
		case schema.CodeOf(r.Err).Class() != schema.OutcomeUnknown:
			t.Errorf("event %d, to the broken node: %v is coded %v", i, r.Err, schema.CodeOf(r.Err).Name())
		case want != nil && !errors.Is(r.Err, want):
			t.Errorf("event %d, to the broken node: %v, want %v", i, r.Err, want)
		}
	}
	if broken != 0 && failed == 0 {
		t.Fatal("no event went to the broken node")
	}
}

// TestSpreadBatchSurvivesAClosedNode closes node 3 of three under a client
// with warm routes: the next batch's frames to nodes 1 and 2 ride the same
// flight as the one to node 3, and only node 3's events fail.
func TestSpreadBatchSurvivesAClosedNode(t *testing.T) {
	d, mesh := deployTCP(t, 3)
	c := dial(t, mesh, d, ingress.Config{})
	items := spread(d, 3, 24)
	for range 2 {
		checkIsolated(t, c.SubmitBatch(items), 3, 0, nil) // learn the routes
	}
	if err := d.Nodes[2].Close(); err != nil {
		t.Fatal(err)
	}
	checkIsolated(t, c.SubmitBatch(items), 3, d.Nodes[2].ID(), nil)
}

// TestSpreadBatchSurvivesADroppedPeer is the same over a faulty in-memory
// mesh that drops every request from the client to node 3: the dropped
// events fail as transport.ErrDropped, each on its own.
func TestSpreadBatchSurvivesADroppedPeer(t *testing.T) {
	fm := transport.NewFaultyMesh(transport.NewInMemMesh(transport.NewSim(transport.SimConfig{})))
	d, err := node.Deploy(fm, node.Topology{Nodes: 3})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	const id = ingress.ClientIDBase + 1000
	c := dial(t, fm, d, ingress.Config{ID: id})
	items := spread(d, 3, 24)
	for range 2 {
		checkIsolated(t, c.SubmitBatch(items), 3, 0, nil) // learn the routes
	}
	fm.Drop(id, d.Nodes[2].ID())
	checkIsolated(t, c.SubmitBatch(items), 3, d.Nodes[2].ID(), transport.ErrDropped)
}
