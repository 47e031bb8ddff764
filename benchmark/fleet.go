package main

import (
	"fmt"
	"math/rand"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// op is one generated event together with what the oracle must know about
// it: the monotone counters it moves when acknowledged, and how many
// synchronous sub-calls its method makes.
type op struct {
	Target   ownership.ID
	Method   string
	Args     []any
	Effects  []workload.Effect
	SubCalls int
}

// targets is what the generator and the oracle know about a workload's
// built topology: which contexts exist and which monotone counter ("entity")
// each one carries. Context IDs are deterministic, so the same targets
// describe every deployment of the workload, and a single-process runtime
// built from the same spec (newOfflineTargets) yields them without a fleet.
type targets struct {
	spec *workloadSpec
	scen workload.Scenario  // nil for bank
	bank *node.BankTopology // nil for scenarios
	// entities is how many monotone counters the oracle models; initial is
	// every one's value at boot.
	entities int
	initial  uint64
}

func newTargets(spec *workloadSpec, scen workload.Scenario, bank *node.BankTopology) *targets {
	t := &targets{spec: spec, scen: scen, bank: bank}
	if scen != nil {
		t.entities = scen.Entities()
	} else {
		t.entities = spec.Nodes * bankAccounts
		t.initial = bankInitial
	}
	return t
}

// fleet is one deployed in-process fleet plus the external clients that
// drive it. Everything the load generator does goes through sat/paced; the
// deployment handle is kept for scraping, churn and teardown only.
type fleet struct {
	*targets
	mesh *transport.TCPMesh
	dep  *node.Deployment
	// sat serves the closed-loop slices, paced the open-loop ones, so that
	// neither sees the other's routes repaired or connections warmed.
	sat, paced *ingress.Client
	// migratable are the roots the churn loop moves (iot regions 1..N-1).
	migratable []int
}

func nodeIDs(n int) []transport.NodeID {
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i + 1)
	}
	return ids
}

func (s *workloadSpec) scenario() workload.Scenario {
	switch s.Scenario {
	case "social":
		return workload.NewSocial(s.Nodes, socialPodSize, socialDepth)
	case "iot":
		return workload.NewIoT(s.Nodes, iotSensors)
	}
	return nil
}

func (s *workloadSpec) topology(scen workload.Scenario) node.Topology {
	top := node.Topology{
		Nodes:           s.Nodes,
		AccountsPerBank: bankAccounts,
		InitialBalance:  bankInitial,
		Scenario:        scen,
		EnableOps:       true,
	}
	if s.Elastic {
		top.StoreParts = iotStoreParts
		top.Replicate = true
	}
	return top
}

// deployFleet is the set-up a user of the system pays before the first
// event is served: deploy over TCP loopback, wait until fully meshed, dial
// the external clients, and round-trip one event per node so the mux
// connections exist. Its wall time is one setup_s sample.
func deployFleet(spec *workloadSpec) (*fleet, error) {
	scen := spec.scenario()
	f := &fleet{mesh: transport.NewTCPMesh()}
	dep, err := node.Deploy(f.mesh, spec.topology(scen))
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", spec.Name, err)
	}
	f.dep = dep
	f.targets = newTargets(spec, scen, dep.Top)
	if err := dep.WaitReady(10 * time.Second); err != nil {
		f.close()
		return nil, fmt.Errorf("deploy %s: %w", spec.Name, err)
	}
	if spec.Elastic {
		for r := 1; r < len(scen.Roots()); r++ {
			f.migratable = append(f.migratable, r)
		}
	}
	ids := nodeIDs(spec.Nodes)
	cfg := ingress.Config{Nodes: ids, Window: clientWindow, NoCoalesce: spec.RPC}
	if f.sat, err = ingress.Dial(f.mesh, cfg); err != nil {
		f.close()
		return nil, err
	}
	if f.paced, err = ingress.Dial(f.mesh, cfg); err != nil {
		f.close()
		return nil, err
	}
	// One read-only event per server and client opens every mux connection.
	seen := make(map[cluster.ServerID]bool)
	for e := 0; e < f.entities; e++ {
		if srv := f.entityServer(e); !seen[srv] {
			seen[srv] = true
			for _, c := range []*ingress.Client{f.sat, f.paced} {
				if _, err := f.readEntity(c.Submit, e); err != nil {
					f.close()
					return nil, fmt.Errorf("first event on %s: %w", spec.Name, err)
				}
			}
		}
	}
	return f, nil
}

// entityServer is the server hosting entity e at boot.
func (t *targets) entityServer(e int) cluster.ServerID {
	if t.scen != nil {
		return t.scen.EntityServer(e)
	}
	return cluster.ServerID(e/bankAccounts + 1)
}

// newOfflineTargets builds the workload's topology on a single-process
// runtime: the same context IDs as every deployment, without a fleet. The
// caller closes the runtime.
func newOfflineTargets(spec *workloadSpec) (*targets, *core.Runtime, error) {
	if scen := spec.scenario(); scen != nil {
		rt, err := workload.NewScenarioRuntime(scen, spec.Nodes)
		if err != nil {
			return nil, nil, err
		}
		return newTargets(spec, scen, nil), rt, nil
	}
	cl := cluster.New(transport.NewSim(transport.SimConfig{}))
	for i := 0; i < spec.Nodes; i++ {
		cl.AddServer(cluster.M3Large)
	}
	s := node.BankSchema()
	if err := s.Freeze(); err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.ChargeClientHops = false
	rt, err := core.New(s, ownership.NewGraph(), cl, cfg)
	if err != nil {
		return nil, nil, err
	}
	bank, err := node.BuildBank(rt, bankAccounts, bankInitial)
	if err != nil {
		rt.Close()
		return nil, nil, err
	}
	return newTargets(spec, nil, bank), rt, nil
}

func (f *fleet) clients() []*ingress.Client { return []*ingress.Client{f.sat, f.paced} }

func (f *fleet) close() {
	if f.sat != nil {
		_ = f.sat.Close()
	}
	if f.paced != nil {
		_ = f.paced.Close()
	}
	if f.dep != nil {
		f.dep.Close()
	}
}

// bankAccount maps a bank entity to its account context.
func (t *targets) bankAccount(e int) ownership.ID {
	return t.bank.Accounts[e/bankAccounts][e%bankAccounts]
}

// readEntity reads entity e's authoritative counter with a readonly event.
func (t *targets) readEntity(submit workload.Submit, e int) (uint64, error) {
	if t.scen != nil {
		return t.scen.ReadEntity(submit, e)
	}
	v, err := submit(t.bankAccount(e), "balance")
	if err != nil {
		return 0, err
	}
	return uint64(v.(int)), nil
}

// genPool derives the op pool from the seed and the built topology only.
// Same seed, same pool: context IDs are deterministic across deployments.
func (t *targets) genPool(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]op, n)
	for i := range pool {
		pool[i] = t.genOp(rng)
	}
	return pool
}

func (t *targets) genOp(rng *rand.Rand) op {
	switch t.spec.Scenario {
	case "bank":
		e := rng.Intn(t.entities)
		if rng.Intn(100) >= bankDepositPct {
			return op{Target: t.bankAccount(e), Method: "balance"}
		}
		v := 1 + rng.Intn(100)
		return op{
			Target:  t.bankAccount(e),
			Method:  "deposit",
			Args:    []any{v},
			Effects: []workload.Effect{{Entity: e, Delta: uint64(v)}},
		}
	case "iot":
		// Region 0 is the scratch region: it takes every provision, so its
		// sensor set grows during the run. Rolling it up would make
		// per-event work drift; such draws are redrawn.
		scratch := t.scen.Roots()[0]
		for {
			so := t.scen.SoakOp(rng)
			if so.Method == "rollup" && so.Target == scratch {
				continue
			}
			o := op{Target: so.Target, Method: so.Method, Args: so.Args, Effects: so.Effects}
			if so.Method == "rollup" {
				o.SubCalls = iotSensors
			}
			return o
		}
	default:
		so := t.scen.SoakOp(rng)
		o := op{Target: so.Target, Method: so.Method, Args: so.Args, Effects: so.Effects}
		if so.Method == "post" {
			o.SubCalls = len(so.Effects)
		}
		return o
	}
}

// tally is the oracle's ledger: per entity, the deltas of acknowledged ops
// and (separately) of failed ones, whose outcome is unknown.
type tally struct {
	acked, maybe     []uint64
	attempted, fails int64
}

func newTally(entities int) *tally {
	return &tally{acked: make([]uint64, entities), maybe: make([]uint64, entities)}
}

func (t *tally) record(o *op, err error) {
	t.attempted++
	dst := t.acked
	if err != nil {
		if t.fails < 3 {
			logf("event %s on %v failed: %v", o.Method, o.Target, err)
		}
		t.fails++
		dst = t.maybe
	}
	for _, e := range o.Effects {
		dst[e.Entity] += e.Delta
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.fails += o.fails
	for i := range t.acked {
		t.acked[i] += o.acked[i]
		t.maybe[i] += o.maybe[i]
	}
}

// checkOracle runs after quiesce. Every entity must read exactly
// initial + Σ acked deltas when nothing failed, and within
// [acked, acked+failed] otherwise; each bank's audit must equal the sum of
// its accounts; and each migrated root must answer from the server the churn
// loop last moved it to. It returns the number of mismatches (each printed).
func (f *fleet) checkOracle(t *tally, lastHost map[int]cluster.ServerID) int {
	bad := 0
	mismatch := func(format string, args ...any) {
		bad++
		if bad <= 10 {
			logf("oracle: "+format, args...)
		}
	}
	bankSum := make([]uint64, f.spec.Nodes)
	for e := 0; e < f.entities; e++ {
		got, err := f.readEntity(f.sat.Submit, e)
		if err != nil {
			mismatch("entity %d unreadable: %v", e, err)
			continue
		}
		lo := f.initial + t.acked[e]
		hi := lo + t.maybe[e]
		if got < lo || got > hi {
			mismatch("entity %d = %d, want [%d, %d]", e, got, lo, hi)
		}
		if f.scen == nil {
			bankSum[e/bankAccounts] += got
		}
	}
	if f.scen == nil {
		for b, bank := range f.bank.Banks {
			v, err := f.sat.Submit(bank, "audit")
			if err != nil {
				mismatch("bank %d audit: %v", b, err)
			} else if uint64(v.(int)) != bankSum[b] {
				mismatch("bank %d audit = %d, accounts sum to %d", b, v, bankSum[b])
			}
		}
	}
	for r, want := range lastHost {
		root := f.scen.Roots()[r]
		if _, err := f.sat.Submit(root, "stats"); err != nil {
			mismatch("migrated root %d: %v", r, err)
			continue
		}
		if got, _ := f.sat.Route(root); got != transport.NodeID(want) {
			mismatch("migrated root %d answers from node %d, churn left it on %d", r, got, want)
		}
		dest := f.dep.Node(transport.NodeID(want))
		if got, _ := dest.Runtime().Directory().Locate(root); got != want {
			mismatch("node %d places root %d on %d, churn left it there", dest.ID(), r, got)
		}
	}
	return bad
}
