package node

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/schema"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// runScenarioOnHarness deploys scen on a live n-node deployment and replays
// its script through node 1, returning the transcript.
func runScenarioOnHarness(t *testing.T, name string, nodes int) []string {
	t.Helper()
	scen, err := workload.NewScenario(name, nodes)
	if err != nil {
		t.Fatalf("scenario %s: %v", name, err)
	}
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	// Replicate is required for the social workload: a post's virtual-join
	// dominator is minted by whichever node first runs the dominator query,
	// and the mint must reach the mesh through the mutation log before the
	// forwarded event lands on the virtual's host.
	d, err := Deploy(mesh, Topology{Nodes: nodes, Scenario: scen, StoreParts: 2, Replicate: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("mesh not ready: %v", err)
	}
	return scen.Script(d.Nodes[0].Submit)
}

// TestScenarioScriptMatchesOracleOnHarness is the scenario layer's
// ground-truth check: the same deterministic script, run once against a
// single-process runtime (the oracle) and once against a live multi-node
// deployment with real forwarding, must produce identical transcripts —
// including for the social workload, whose multi-owned timelines make every
// post resolve through a virtual-join dominator.
func TestScenarioScriptMatchesOracleOnHarness(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			const nodes = 3
			want, err := workload.Oracle(name, nodes)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			got := runScenarioOnHarness(t, name, nodes)
			if len(got) != len(want) {
				t.Fatalf("transcript length: harness %d oracle %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("transcript diverges at line %d:\n  harness: %s\n  oracle:  %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSubmitBatchFirstTouchMaterialisesVirtualJoin sends a batch frame as
// the very first traffic a social deployment sees. Every post sequences at
// its pod's virtual-join dominator, which the receiving node has resolved
// but never materialised; the batch handler must route it exactly like the
// single-submit handler does (materialise, then locate) instead of failing
// the event with "unknown context". The frame names one pod per server, so
// both the locally executed slice and the forwarded sub-batches first-touch.
func TestSubmitBatchFirstTouchMaterialisesVirtualJoin(t *testing.T) {
	const nodes = 3
	scen, err := workload.NewScenario("social", nodes)
	if err != nil {
		t.Fatal(err)
	}
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	d, err := Deploy(mesh, Topology{Nodes: nodes, Scenario: scen, StoreParts: 2, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// One post per pod: a post's effects land on its author's pod, and the
	// pod's entities name its server.
	var req schema.SubmitBatchReq
	seen := make(map[cluster.ServerID]bool)
	for rng := rand.New(rand.NewSource(1)); len(seen) < nodes; {
		op := scen.SoakOp(rng)
		if op.Method != "post" || seen[scen.EntityServer(op.Effects[0].Entity)] {
			continue
		}
		seen[scen.EntityServer(op.Effects[0].Entity)] = true
		req.Events = append(req.Events, schema.BatchEvent{Target: op.Target, Method: op.Method, Args: op.Args})
	}

	ep, err := mesh.Attach(999, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, errors.New("client endpoint serves nothing")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	payload, err := req.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ep.Call(context.Background(), 1, transport.Message{Kind: schema.KindSubmitBatch, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	var resp schema.SubmitBatchResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		t.Fatal(err)
	}
	if len(resp.Outcomes) != nodes {
		t.Fatalf("%d outcomes for %d events", len(resp.Outcomes), nodes)
	}
	for i, out := range resp.Outcomes {
		if out.Code != schema.CodeOK {
			t.Errorf("first-touch post %d (target %v): %s [%s]", i, req.Events[i].Target, out.Err, out.Code.Name())
		}
	}
}
