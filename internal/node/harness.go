package node

// In-process multi-node harness: builds N node runtimes — each embodying
// one server of an identically replicated topology — and attaches them to
// one Mesh, so the full wire protocol (submit, forwarding, remote store,
// mesh state transfer) is exercised inside ordinary `go test` with either
// the in-memory mesh or TCP loopback.

import (
	"fmt"
	"strings"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ops"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Topology describes an in-process deployment.
type Topology struct {
	// Nodes is the number of node processes (and servers; 1:1).
	Nodes int
	// Profile is the server instance profile (default m3.large).
	Profile cluster.Profile
	// StoreNode serves the authoritative cloud store (default node 1).
	// Ignored when StoreParts > 0.
	StoreNode transport.NodeID
	// StoreParts, when > 0, deploys the sharded, replicated store plane
	// instead of a store-serving node: each of the StoreParts partitions is
	// served by StoreRF dedicated StoreServer processes (partition p's
	// replica r attaches at StoreIDBase+StoreRF*p+r+1; replica 0 is the
	// boot primary), and every node routes through a Partitioned client.
	StoreParts int
	// StoreBackend opens each store server's backend ("memory" when empty;
	// "disk:<dir>" gets "/p<partition>-r<replica>" appended so replicas
	// never share a journal).
	StoreBackend string
	// AccountsPerBank sizes the bank workload (default 4).
	AccountsPerBank int
	// InitialBalance seeds every account (default 1000).
	InitialBalance int
	// Scenario, when non-nil, replaces the bank workload: every node hosts
	// the scenario's schema and topology instead (Top stays nil). The same
	// instance is shared across nodes — Build is deterministic and resets
	// itself, so each node's replica derives identical IDs, and Restart
	// rebuilds the same boot topology.
	Scenario Scenario
	// Replicate enables the replicated ownership-metadata control plane on
	// every node: runtime structural mutations are sequenced through the
	// authoritative store's mutation log instead of staying process-local.
	Replicate bool
	// EnableOps gives every node its own ops.Registry (admin-plane metrics,
	// events, traces), reachable via Node.Ops.
	EnableOps bool
}

// Scenario is what a node needs of a hosted workload (workload.Scenario is
// one): its name, its schema and a deterministic build of its topology.
type Scenario interface {
	Name() string
	Schema() *schema.Schema
	Build(rt *core.Runtime) error
}

// Deployment is a set of in-process nodes attached to one mesh.
type Deployment struct {
	// Nodes in ID order (Nodes[0] is node 1).
	Nodes []*Node
	// Top is the replicated bank topology (identical on every node); nil
	// when the deployment hosts a Topology.Scenario instead.
	Top *BankTopology
	// Stores[i] is node i+1's local in-memory store; only the store
	// node's is authoritative (all unauthoritative with StoreParts).
	Stores []*cloudstore.Store
	// StoreServers are the dedicated store-replica processes, in partition
	// order: [p0 replica 0 (boot primary), p0 replica 1, p0 replica 2,
	// p1 replica 0, ...] — StoreRF per partition. Empty without
	// Topology.StoreParts.
	StoreServers []*StoreServer
	// StoreBackends are the backends behind StoreServers, same order. The
	// deployment owns them (closed by Close); they outlive a killed server
	// so chaos tests can inspect or re-serve them.
	StoreBackends []cloudstore.Backend
}

// StoreServerFor returns the deployed store server at the given mesh
// address (nil if none or already removed).
func (d *Deployment) StoreServerFor(id transport.NodeID) *StoreServer {
	for _, s := range d.StoreServers {
		if s != nil && s.ID() == id {
			return s
		}
	}
	return nil
}

// storePartitions derives the StorePartition list the topology implies.
func (top Topology) storePartitions() []StorePartition {
	parts := make([]StorePartition, top.StoreParts)
	for p := 0; p < top.StoreParts; p++ {
		ids := make([]transport.NodeID, StoreRF)
		for r := 0; r < StoreRF; r++ {
			ids[r] = StoreIDBase + transport.NodeID(StoreRF*p+r+1)
		}
		parts[p] = StorePartition{Replicas: ids}
	}
	return parts
}

// withDefaults fills the Topology defaults shared by Deploy and Restart —
// one place, so a restarted node always rebuilds the same boot topology as
// its original incarnation.
func (top Topology) withDefaults() Topology {
	if top.Profile.Name == "" {
		top.Profile = cluster.M3Large
	}
	if top.StoreNode == 0 {
		top.StoreNode = 1
	}
	if top.AccountsPerBank <= 0 {
		top.AccountsPerBank = 4
	}
	if top.InitialBalance == 0 {
		top.InitialBalance = 1000
	}
	return top
}

// Deploy builds and starts an in-process deployment on mesh. Every node
// replays the same deterministic construction: same schema, same cluster,
// same bank topology — so IDs and placements agree without coordination,
// exactly like N processes launched from the same binary and flags.
func Deploy(mesh transport.Mesh, top Topology) (*Deployment, error) {
	if top.Nodes <= 0 {
		return nil, fmt.Errorf("node: deployment needs at least one node")
	}
	top = top.withDefaults()
	d := &Deployment{}
	// Store servers come up before any node: nodes with Replicate catch up
	// from the store during Start, so the plane must already be serving.
	if top.StoreParts > 0 {
		for p := 0; p < top.StoreParts; p++ {
			for r := 0; r < StoreRF; r++ {
				spec := top.StoreBackend
				if spec == "" {
					spec = "memory"
				} else if name, arg, ok := diskSpec(spec); ok {
					spec = fmt.Sprintf("%s:%s/p%d-r%d", name, arg, p, r)
				}
				be, err := cloudstore.Open(spec)
				if err != nil {
					d.Close()
					return nil, fmt.Errorf("store backend %q: %w", spec, err)
				}
				srv, err := ServeStore(mesh, StoreIDBase+transport.NodeID(StoreRF*p+r+1), be)
				if err != nil {
					be.Close()
					d.Close()
					return nil, err
				}
				d.StoreServers = append(d.StoreServers, srv)
				d.StoreBackends = append(d.StoreBackends, be)
			}
		}
	}
	// The store-serving node starts first: a node reads the store before it
	// serves (Start recovers its server).
	d.Nodes = make([]*Node, top.Nodes)
	d.Stores = make([]*cloudstore.Store, top.Nodes)
	for _, first := range []bool{true, false} {
		for i := range d.Nodes {
			if id := transport.NodeID(i + 1); (top.StoreParts == 0 && id == top.StoreNode) == first {
				n, bank, store, err := buildNode(mesh, top, id)
				if err != nil {
					d.Close()
					return nil, err
				}
				d.Nodes[i], d.Stores[i], d.Top = n, store, bank
			}
		}
	}
	return d, nil
}

// buildNode constructs one node's full replica and attaches it.
func buildNode(mesh transport.Mesh, top Topology, id transport.NodeID) (*Node, *BankTopology, *cloudstore.Store, error) {
	cl := cluster.New(transport.NewSim(transport.SimConfig{}))
	for i := 0; i < top.Nodes; i++ {
		cl.AddServer(top.Profile)
	}
	rtCfg := core.DefaultConfig()
	rtCfg.ChargeClientHops = false
	s := BankSchema()
	if top.Scenario != nil {
		s = top.Scenario.Schema()
	}
	if err := s.Freeze(); err != nil {
		return nil, nil, nil, err
	}
	rt, err := core.New(s, ownership.NewGraph(), cl, rtCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var bank *BankTopology
	if top.Scenario != nil {
		if err := top.Scenario.Build(rt); err != nil {
			return nil, nil, nil, fmt.Errorf("scenario %s on node %v: %w", top.Scenario.Name(), id, err)
		}
	} else {
		bank, err = BuildBank(rt, top.AccountsPerBank, top.InitialBalance)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	store := cloudstore.New()
	cfg := Config{ID: id, Runtime: rt, LocalStore: store}
	if top.StoreParts > 0 {
		cfg.StoreReplicas = top.storePartitions()
	} else {
		cfg.StoreNode = top.StoreNode
	}
	if top.EnableOps {
		cfg.Ops = ops.NewRegistry(0)
	}
	if top.Replicate {
		cfg.Replicate = true
		for i := 1; i <= top.Nodes; i++ {
			cfg.Peers = append(cfg.Peers, transport.NodeID(i))
		}
	}
	n, err := Start(mesh, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("start node %v: %w", id, err)
	}
	return n, bank, store, nil
}

// Restart rebuilds the node with the given mesh ID from scratch — a fresh
// deterministic startup replica, like a crashed process relaunched from the
// same binary and flags — and re-attaches it to the mesh. The previous
// incarnation must have been closed (Close + Runtime().Close()). Before it
// serves, the restarted node replays the mutation log (with
// Topology.Replicate: runtime-created topology it was not alive to apply),
// restores its server's latest checkpoints and rolls its own migration
// journal forward.
func (d *Deployment) Restart(mesh transport.Mesh, top Topology, id transport.NodeID) (*Node, error) {
	top = top.withDefaults()
	if top.StoreParts == 0 && id == top.StoreNode {
		return nil, fmt.Errorf("node %v: restarting the store node would lose the log", id)
	}
	n, _, store, err := buildNode(mesh, top, id)
	if err != nil {
		return nil, err
	}
	for i := range d.Nodes {
		if d.Nodes[i] != nil && d.Nodes[i].ID() == id {
			d.Nodes[i] = n
			d.Stores[i] = store
		}
	}
	return n, nil
}

// Node returns the node with the given mesh ID.
func (d *Deployment) Node(id transport.NodeID) *Node {
	for _, n := range d.Nodes {
		if n != nil && n.ID() == id {
			return n
		}
	}
	return nil
}

// WaitReady pings every node from every other until the deployment is fully
// meshed or the timeout elapses.
func (d *Deployment) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, from := range d.Nodes {
		for _, to := range d.Nodes {
			if from == to {
				continue
			}
			for {
				if err := from.Ping(to.ID()); err == nil {
					break
				} else if time.Now().After(deadline) {
					return fmt.Errorf("node %v unreachable from %v: %w", to.ID(), from.ID(), err)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	return nil
}

// Close closes every node — each checkpoints its server into the store —
// and its runtime, the store-serving node last, then tears down the store
// plane (servers detached, backends closed).
func (d *Deployment) Close() {
	for _, last := range []bool{false, true} {
		for _, n := range d.Nodes {
			if n != nil && n.servesStore == last {
				_ = n.Close()
				n.Runtime().Close()
			}
		}
	}
	for _, s := range d.StoreServers {
		if s != nil {
			_ = s.Close()
		}
	}
	for _, be := range d.StoreBackends {
		if be != nil {
			_ = be.Close()
		}
	}
}

// diskSpec splits a journaling-backend spec ("disk:<dir>" or
// "disk+fsync:<dir>") into its backend name and directory, reporting
// whether the spec is one. Both variants get per-replica directory
// suffixes so replicas never share a journal.
func diskSpec(spec string) (name, dir string, ok bool) {
	i := strings.IndexByte(spec, ':')
	if i <= 0 {
		return "", "", false
	}
	if n := spec[:i]; n == "disk" || n == "disk+fsync" {
		return n, spec[i+1:], true
	}
	return "", "", false
}
