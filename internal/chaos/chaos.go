// Package chaos is the seeded fault-injection soak harness: it deploys a
// scenario workload (internal/workload) on the multi-process node harness,
// drives oracle-diffed traffic through it, and walks a deterministic fault
// schedule — mesh drops/partitions/duplicates, node kill+restart, store
// replica kill+failover, migration churn, replication-lag windows — while
// model-checking convergence invariants and SLOs at every checkpoint.
//
// Everything is derived from the seed: the schedule from its own PRNG, the
// soak traffic from per-worker PRNGs seeded off the same value. A failure
// report therefore names one integer that replays the exact fault timeline.
package chaos

import (
	"fmt"
	"hash/fnv"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// storeRF mirrors the harness's fixed store replication factor; schedule
// generation needs it to enumerate store replicas without importing node.
const storeRF = node.StoreRF

// The soak's fleet: nodes (victims come from 2..nodes), store partitions
// (the store plane always replicates: chaos without a durable log has
// nothing to converge to) and traffic workers; the fault schedule's slot
// width; and the SLOs every checkpoint asserts, the acked/attempted floor
// and the client p99 ceiling (lag-gated submits legitimately block for the
// lag window's length).
const (
	nodes             = 3
	storeParts        = 2
	workers           = 4
	step              = 250 * time.Millisecond
	availabilityFloor = 0.5
	p99Ceiling        = 3 * time.Second
)

// Config parameterizes one chaos soak.
type Config struct {
	// Scenario is the workload name ("iot", "social").
	Scenario string
	// Seed drives the fault schedule and all soak traffic.
	Seed int64
	// Duration is the soak length (default 8s), cut into slots of step.
	Duration time.Duration
	// Log, when set, receives progress lines.
	Log func(string)
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 8 * time.Second
	}
	return c
}

// Report is the outcome of one soak.
type Report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Slots    int            `json:"slots"`
	Timeline []string       `json:"timeline"` // canonical schedule lines
	Faults   map[string]int `json:"faults"`   // injected faults per class

	Ops       uint64 `json:"ops"`
	Acked     uint64 `json:"acked"`
	Failed    uint64 `json:"failed"`
	Ambiguous uint64 `json:"ambiguous"`

	Availability float64       `json:"availability"`
	ClientP50    time.Duration `json:"client_p50_ns"`
	ClientP99    time.Duration `json:"client_p99_ns"`
	NodeP99      time.Duration `json:"node_p99_ns"`

	// Recovery is the worst observed post-heal recovery time per fault
	// class: heal-to-first-success for mesh and migrate, restart-to-ready
	// for kill, failover-to-first-write for store, resume-to-caught-up for
	// lag.
	Recovery map[string]time.Duration `json:"recovery_ns"`

	Checkpoints int      `json:"checkpoints"`
	OracleDiffs int      `json:"oracle_diffs"`
	Violations  []string `json:"violations"`
}

// runner holds the live soak state.
type runner struct {
	cfg   Config
	scen  workload.Scenario
	net   *transport.SimNetwork
	fm    *transport.FaultyMesh
	top   node.Topology
	d     *node.Deployment
	dr    *driver
	ing   *ingress.Client
	sched *Schedule

	base      []uint64 // per-entity baseline counter after the script
	fence     []uint64 // per-partition max observed fence epoch
	salts     []string // per-partition probe-key salt (salt/x lands in p)
	probes    int      // probe keys written so far
	deadStore map[int]bool
	// at is the server each root's group sits on, and movedFrom where its
	// open migrate window found it.
	at, movedFrom map[int]int

	recovery   map[string]time.Duration
	violations []string
	checks     int
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Log != nil {
		r.cfg.Log(fmt.Sprintf(format, args...))
	}
}

func (r *runner) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.logf("VIOLATION: "+format, args...)
}

func (r *runner) noteRecovery(class string, d time.Duration) {
	if d > r.recovery[class] {
		r.recovery[class] = d
	}
}

func (r *runner) node(i int) *node.Node { return r.d.Node(transport.NodeID(i)) }

// emit publishes a chaos lifecycle event into the ops plane's event ring
// (node 1 is never a victim, so its registry observes the whole soak).
func (r *runner) emit(a Action) {
	reg := r.node(1).Ops()
	if reg == nil {
		return
	}
	typ := "chaos.inject"
	if a.Heal {
		typ = "chaos.heal"
	}
	reg.Emit(typ, map[string]any{
		"slot": a.Slot, "class": a.Class, "kind": a.Kind, "a": a.A, "b": a.B,
	})
}

// waitUntil polls f until it succeeds or the timeout elapses, returning the
// elapsed time — the recovery-probe primitive.
func waitUntil(timeout time.Duration, f func() bool) (time.Duration, bool) {
	t0 := time.Now()
	for {
		if f() {
			return time.Since(t0), true
		}
		if time.Since(t0) > timeout {
			return time.Since(t0), false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// probeSalts finds, per store partition, a key-group salt that the
// partition hash maps into that partition, so failover probes can target a
// specific partition's primary.
func probeSalts(parts int) []string {
	salts := make([]string, parts)
	found := 0
	for i := 0; found < parts; i++ {
		salt := fmt.Sprintf("chaosprobe-%d", i)
		h := fnv.New32a()
		h.Write([]byte(salt))
		p := int(h.Sum32() % uint32(parts))
		if salts[p] == "" {
			salts[p] = salt
			found++
		}
	}
	return salts
}

// Run executes one seeded chaos soak end to end and returns its report.
// Invariant violations are reported, not returned as errors; err is non-nil
// only when the soak could not be set up at all.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	scen, err := workload.NewScenario(cfg.Scenario, nodes)
	if err != nil {
		return nil, err
	}
	oracle, err := workload.Oracle(cfg.Scenario, nodes)
	if err != nil {
		return nil, fmt.Errorf("chaos: oracle: %w", err)
	}

	net := transport.NewSim(transport.SimConfig{})
	fm := transport.NewFaultyMesh(transport.NewInMemMesh(net))
	top := node.Topology{
		Nodes:      nodes,
		Scenario:   scen,
		StoreParts: storeParts,
		Replicate:  true,
		EnableOps:  true,
	}
	d, err := node.Deploy(fm, top)
	if err != nil {
		return nil, fmt.Errorf("chaos: deploy: %w", err)
	}
	defer d.Close()
	if err := d.WaitReady(15 * time.Second); err != nil {
		return nil, fmt.Errorf("chaos: mesh never settled: %w", err)
	}

	r := &runner{
		cfg: cfg, scen: scen, net: net, fm: fm, top: top, d: d,
		deadStore: make(map[int]bool),
		at:        make(map[int]int),
		movedFrom: make(map[int]int),
		recovery:  make(map[string]time.Duration),
		salts:     probeSalts(storeParts),
	}
	for i := range scen.Roots() {
		r.at[i] = int(scen.RootServer(i))
	}

	// Preflight: the deterministic script through the live deployment must
	// match the single-process oracle line for line before any fault fires.
	// A mismatch here is a correctness bug, not a chaos finding.
	got := scen.Script(d.Nodes[0].Submit)
	diffs := 0
	for i := range oracle {
		if i >= len(got) || got[i] != oracle[i] {
			diffs++
		}
	}
	if len(got) != len(oracle) {
		diffs += abs(len(got) - len(oracle))
	}
	if diffs > 0 {
		r.violate("preflight: %d oracle transcript diffs", diffs)
	}

	// Baselines: entity counters after the script, and fence epochs.
	r.base = make([]uint64, scen.Entities())
	for e := range r.base {
		v, err := scen.ReadEntity(d.Nodes[0].Submit, e)
		if err != nil {
			return nil, fmt.Errorf("chaos: baseline read of entity %d: %w", e, err)
		}
		r.base[e] = v
	}
	r.fence = make([]uint64, storeParts)
	for p := range r.fence {
		r.fence[p] = r.maxFence(p)
	}

	// The IoT soak rides batched ingress futures (the high fan-in telemetry
	// shape), sampling every 8th submit into a trace; social drives plain
	// node submits so the virtual-join forwarding path stays hot.
	var ing *ingress.Client
	if cfg.Scenario == "iot" {
		ids := make([]transport.NodeID, nodes)
		for i := range ids {
			ids[i] = transport.NodeID(i + 1)
		}
		ing, err = ingress.Dial(fm, ingress.Config{Nodes: ids, Trace: true, TraceSample: 8})
		if err != nil {
			return nil, fmt.Errorf("chaos: ingress: %w", err)
		}
		defer ing.Close()
	}

	slots := int(cfg.Duration / step)
	sh := Shape{
		Nodes:      nodes,
		StoreParts: storeParts,
		Roots:      len(scen.Roots()),
		RootServer: func(root int) int { return int(scen.RootServer(root)) },
	}
	r.sched = Generate(cfg.Seed, slots, sh)
	r.logf("chaos: seed=%d slots=%d faults=%v", cfg.Seed, slots, r.sched.Classes())

	r.dr = newDriver(scen, d, ing)
	r.dr.run(cfg.Seed+0x9e3779b9, workers)

	// The slot clock. Actions are generated in slot order; recovery probes
	// run inline, so a slow recovery delays later slots but never reorders
	// them — the sequential-windows invariant holds even when wall time
	// slips.
	next := 0
	ticker := time.NewTicker(step)
	for slot := 0; slot < slots; slot++ {
		<-ticker.C
		for next < len(r.sched.Actions) && r.sched.Actions[next].Slot <= slot {
			a := r.sched.Actions[next]
			next++
			r.logf("%s", a.String())
			r.emit(a)
			if a.Heal {
				r.heal(a)
			} else {
				r.inject(a)
			}
		}
		if slot > 0 && slot%6 == 0 {
			r.checkpoint()
		}
	}
	ticker.Stop()
	for next < len(r.sched.Actions) { // heal anything scheduled past the end
		a := r.sched.Actions[next]
		next++
		r.logf("%s (post-loop)", a.String())
		r.emit(a)
		if a.Heal {
			r.heal(a)
		} else {
			r.inject(a)
		}
	}

	r.dr.stopDriver()
	r.quiesce()
	r.finalCheck()

	rep := &Report{
		Workload:     cfg.Scenario,
		Seed:         cfg.Seed,
		Slots:        slots,
		Timeline:     r.sched.Lines(),
		Faults:       r.sched.Classes(),
		Ops:          r.dr.attempts.Load(),
		Acked:        r.dr.acked.Load(),
		Failed:       r.dr.failed.Load(),
		Ambiguous:    r.dr.ambiguous.Load(),
		Availability: r.dr.availability(),
		ClientP50:    r.dr.lat.Quantile(0.50),
		ClientP99:    r.dr.lat.Quantile(0.99),
		NodeP99:      r.nodeP99(),
		Recovery:     r.recovery,
		Checkpoints:  r.checks,
		OracleDiffs:  diffs,
		Violations:   r.violations,
	}
	return rep, nil
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ---- fault executors ----

func (r *runner) inject(a Action) {
	switch a.Class {
	case ClassMesh:
		switch a.Kind {
		case MeshDrop:
			r.fm.Drop(transport.NodeID(a.A), transport.NodeID(a.B))
		case MeshPartition:
			r.net.Partition(transport.NodeID(a.A), transport.NodeID(a.B))
			r.net.Partition(transport.NodeID(a.B), transport.NodeID(a.A))
			// Calls in flight across this instant may lose only their reply.
			r.dr.noteHazard()
		case MeshDup:
			// Duplicate node→store-replica calls: the store surface is
			// idempotent (CAS appends, versioned puts), so at-least-once
			// delivery must be absorbed. Node→node submits are deliberately
			// never duplicated — event execution is not idempotent.
			to := node.StoreIDBase + transport.NodeID(a.B+1)
			r.fm.Duplicate(transport.NodeID(a.A), to, 2)
		}
	case ClassKill:
		r.killNode(a.A)
	case ClassStore:
		r.killStore(a.A)
	case ClassMigrate:
		r.migrate(a, false)
	case ClassLag:
		r.lagStart(a.A)
	}
}

func (r *runner) heal(a Action) {
	switch a.Class {
	case ClassMesh:
		switch a.Kind {
		case MeshDrop:
			r.fm.Heal(transport.NodeID(a.A), transport.NodeID(a.B))
			r.probeLink(a.A, a.B)
		case MeshPartition:
			r.net.Heal(transport.NodeID(a.A), transport.NodeID(a.B))
			r.net.Heal(transport.NodeID(a.B), transport.NodeID(a.A))
			r.probeLink(a.A, a.B)
			r.probeLink(a.B, a.A)
		case MeshDup:
			// Duplication self-expires after its call budget; nothing to heal.
		}
	case ClassKill:
		r.restartNode(a.A)
	case ClassStore:
		// The killed primary stays dead: the partition runs on its quorum
		// remainder for the rest of the soak, which is itself an invariant
		// under test. Recovery was measured at inject time (failover).
	case ClassMigrate:
		r.migrate(a, true)
	case ClassLag:
		r.lagStop(a.A)
	}
}

// probeLink waits until a submit from node `from` reaching an entity hosted
// on server `to` succeeds — the mesh-heal recovery probe.
func (r *runner) probeLink(from, to int) {
	e := r.entityOn(to)
	if e < 0 {
		return
	}
	n := r.node(from)
	el, ok := waitUntil(10*time.Second, func() bool {
		_, err := r.scen.ReadEntity(n.Submit, e)
		return err == nil
	})
	if !ok {
		r.violate("mesh heal %d->%d: no recovery after %v", from, to, el)
		return
	}
	r.noteRecovery(ClassMesh, el)
}

// entityOn returns an entity on server s: the probe entity of a root group
// sitting there now, else one placed there at boot; -1 if there is none.
func (r *runner) entityOn(s int) int {
	for i := range r.scen.Roots() {
		if r.at[i] == s {
			return r.scen.RootEntity(i)
		}
	}
	for e := 0; e < r.scen.Entities(); e++ {
		if int(r.scen.EntityServer(e)) == s {
			return e
		}
	}
	return -1
}

// killNode takes node v down through the product's own close: stop routing
// to it, then Close drains it and checkpoints its server before the process
// is torn down.
func (r *runner) killNode(v int) {
	id := transport.NodeID(v)
	r.dr.markDead(id)
	vn := r.node(v)
	_ = vn.Close()
	vn.Runtime().Close()
	// Ops that entered through the victim en route to other servers may
	// have executed downstream and lost only their reply to the close.
	r.dr.noteHazard()
}

// restartNode brings the victim back: rebuild the process on the same mesh
// ID — its Start restores the server's checkpoints before it serves — and
// wait for bidirectional reachability and replica catch-up before reopening
// traffic.
func (r *runner) restartNode(v int) {
	id := transport.NodeID(v)
	t0 := time.Now()
	// The restarted process builds against a fresh scenario instance:
	// Build on the shared instance would rewrite its ID slices while soak
	// workers read them through SoakOp. Deterministic construction is the
	// point of the Scenario contract — the clone derives identical IDs.
	top := r.top
	if fresh, err := workload.NewScenario(r.cfg.Scenario, nodes); err == nil {
		top.Scenario = fresh
	}
	nn, err := r.d.Restart(r.fm, top, id)
	if err != nil {
		r.violate("restart node=%d: %v", v, err)
		return
	}
	r.dr.setNode(nn)
	one := r.node(1)
	if _, ok := waitUntil(10*time.Second, func() bool {
		return nn.Ping(one.ID()) == nil && one.Ping(id) == nil
	}); !ok {
		r.violate("restart node=%d: never re-meshed", v)
	}
	if err := nn.Plane().WaitFor(one.Plane().Applied(), 10*time.Second); err != nil {
		r.violate("restart node=%d: replica catch-up: %v", v, err)
	}
	r.noteRecovery(ClassKill, time.Since(t0))
	r.dr.markAlive(id)
}

// killStore closes partition p's boot primary, then measures failover by
// probing writes into that partition until the survivors' quorum serves
// them, and asserts the fence epoch advanced — a promotion happened, and
// stale-primary writes are fenced out.
func (r *runner) killStore(p int) {
	id := node.StoreIDBase + transport.NodeID(storeRF*p+1)
	srv := r.d.StoreServerFor(id)
	if srv == nil {
		r.violate("store part=%d: no server at %v", p, id)
		return
	}
	_ = srv.Close()
	r.deadStore[p] = true
	st := r.node(1).Store()
	el, ok := waitUntil(20*time.Second, func() bool {
		r.probes++
		key := fmt.Sprintf("%s/probe-%d", r.salts[p], r.probes)
		_, err := st.Put(key, []byte("x"))
		return err == nil
	})
	if !ok {
		r.violate("store part=%d: no failover after %v", p, el)
		return
	}
	r.noteRecovery(ClassStore, el)
	if cur := r.maxFence(p); cur <= r.fence[p] {
		r.violate("store part=%d: fence epoch did not advance on failover (%d)", p, cur)
	} else {
		r.fence[p] = cur
	}
}

// maxFence reads partition p's highest fence epoch across all replica
// backends (backends outlive killed servers, so dead replicas still count —
// an epoch must never regress anywhere).
func (r *runner) maxFence(p int) uint64 {
	var max uint64
	for rr := 0; rr < storeRF; rr++ {
		be := r.d.StoreBackends[storeRF*p+rr]
		if be == nil {
			continue
		}
		res, err := be.Do(cloudstore.Op{Kind: cloudstore.OpFenceEpoch, Fence: &cloudstore.Fence{Part: p}})
		if err == nil && res.Version > max {
			max = res.Version
		}
	}
	return max
}

// migrate moves root a.A from the server it sits on to server a.B (inject)
// and, for a MigrateBack heal, back to where the inject found it, probing a
// group member after each move. A MigrateStay heal leaves the group where it
// is. Soak traffic keeps running: ops against the moving group resolve via
// forwarding or fail with retry-safe errors, never ambiguously.
func (r *runner) migrate(a Action, heal bool) {
	root := r.scen.Roots()[a.A]
	owner, dest := r.at[a.A], a.B
	if heal {
		from, ok := r.movedFrom[a.A]
		delete(r.movedFrom, a.A)
		if !ok || a.Kind == MigrateStay {
			return // the outbound move failed, or the group stays
		}
		dest = from
	}
	if err := r.node(1).MigrateRemote(transport.NodeID(owner), root, cluster.ServerID(dest)); err != nil {
		r.violate("migrate root=%d %d->%d: %v", a.A, owner, dest, err)
		return
	}
	r.at[a.A] = dest
	if !heal {
		r.movedFrom[a.A] = owner
	}
	e := r.scen.RootEntity(a.A)
	one := r.node(1)
	el, ok := waitUntil(10*time.Second, func() bool {
		_, err := r.scen.ReadEntity(one.Submit, e)
		return err == nil
	})
	if !ok {
		r.violate("migrate root=%d: entity %d unreachable after move", a.A, e)
		return
	}
	r.noteRecovery(ClassMigrate, el)
}

// lagStart pauses the victim's replication apply loop and pushes inert
// churn through the log from node 1, so every peer's applied sequence
// advances past the victim's. Submits forwarded to the victim now carry
// MinSeq above its replica and block in the lag gate — the latency spike
// this fault class exists to produce.
func (r *runner) lagStart(v int) {
	r.node(v).Plane().Pause()
	one := r.node(1)
	for i := 0; i < 8; i++ {
		target, method, args := r.scen.ChurnOp()
		if _, err := one.Submit(target, method, args...); err != nil {
			r.violate("lag churn %d: %v", i, err)
			return
		}
	}
}

// lagStop resumes the victim and measures catch-up to the head its peers
// already applied.
func (r *runner) lagStop(v int) {
	vp := r.node(v).Plane()
	target := r.node(1).Plane().Applied()
	t0 := time.Now()
	vp.Resume()
	if err := vp.WaitFor(target, 10*time.Second); err != nil {
		r.violate("lag node=%d: no catch-up to %d: %v", v, target, err)
		return
	}
	r.noteRecovery(ClassLag, time.Since(t0))
}

// ---- invariant checks ----

// readEntity reads entity e, preferring its home node: a local submit is
// the authoritative path and skips the forwarded-submit lag gate, so a
// checkpoint inside a replication-lag window doesn't stall the slot clock
// for the node's replica-lag wait per entity. Mid-soak reads race live
// faults, so persistent failure means "skip", not "violation".
func (r *runner) readEntity(e int) (uint64, bool) {
	home := int(r.scen.EntityServer(e))
	order := make([]int, 0, nodes)
	order = append(order, home)
	for i := 1; i <= nodes; i++ {
		if i != home {
			order = append(order, i)
		}
	}
	for attempt := 0; attempt < 2; attempt++ {
		for _, i := range order {
			idx := i - 1
			if !r.dr.alive[idx].Load() {
				continue
			}
			r.dr.mu.RLock()
			n := r.dr.byID[r.dr.nodes[idx]]
			r.dr.mu.RUnlock()
			if n == nil {
				continue
			}
			if v, err := r.scen.ReadEntity(n.Submit, e); err == nil {
				return v, true
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return 0, false
}

// checkpoint asserts the mid-soak invariants: every readable entity's
// counter sits inside [acked-before-read, started-after-read]; fence epochs
// are monotone; availability and p99 hold their SLOs.
func (r *runner) checkpoint() {
	r.checks++
	checked := 0
	for e := range r.dr.ents {
		ackedLo := r.dr.ents[e].acked.Load()
		v, ok := r.readEntity(e)
		if !ok {
			continue // a live fault is in the read path; the final check is strict
		}
		started := r.dr.ents[e].started.Load()
		delta := v - r.base[e]
		if delta < ackedLo || delta > started {
			r.violate("checkpoint %d: entity %d counter %d outside [%d,%d]",
				r.checks, e, delta, ackedLo, started)
		}
		checked++
	}
	for p := range r.fence {
		cur := r.maxFence(p)
		if cur < r.fence[p] {
			r.violate("checkpoint %d: fence epoch regressed on part %d: %d < %d",
				r.checks, p, cur, r.fence[p])
		} else {
			r.fence[p] = cur
		}
	}
	if av := r.dr.availability(); av < availabilityFloor {
		r.violate("checkpoint %d: availability %.3f below floor %.3f",
			r.checks, av, availabilityFloor)
	}
	if p99 := r.dr.lat.Quantile(0.99); p99 > p99Ceiling {
		r.violate("checkpoint %d: client p99 %v above ceiling %v",
			r.checks, p99, p99Ceiling)
	}
	r.logf("checkpoint %d: %d/%d entities checked, availability %.3f",
		r.checks, checked, len(r.dr.ents), r.dr.availability())
}

// quiesce waits for every node's replica to apply the highest head any of
// them has observed, so the final check reads a converged system.
func (r *runner) quiesce() {
	var head uint64
	for _, n := range r.d.Nodes {
		if h := n.Plane().Head(); h > head {
			head = h
		}
	}
	for _, n := range r.d.Nodes {
		if err := n.Plane().WaitFor(head, 10*time.Second); err != nil {
			r.violate("quiesce: node %v never applied %d: %v", n.ID(), head, err)
		}
	}
	time.Sleep(100 * time.Millisecond)
}

// finalCheck is the strict post-quiesce audit: two independent nodes must
// agree on every entity counter, each counter must equal base + acked
// exactly when no op's outcome was ambiguous (and sit within the ambiguity
// envelope otherwise), and every replicated-log record the dead store
// primaries acked must survive on their partition's quorum remainder.
func (r *runner) finalCheck() {
	n1, n2 := r.d.Nodes[0], r.d.Nodes[1]
	for e := range r.dr.ents {
		v1, err1 := r.scen.ReadEntity(n1.Submit, e)
		v2, err2 := r.scen.ReadEntity(n2.Submit, e)
		if err1 != nil || err2 != nil {
			r.violate("final: entity %d unreadable (%v / %v)", e, err1, err2)
			continue
		}
		if v1 != v2 {
			r.violate("final: entity %d diverges across nodes: %d vs %d", e, v1, v2)
		}
		acked := r.dr.ents[e].acked.Load()
		ambig := r.dr.ents[e].ambig.Load()
		delta := v1 - r.base[e]
		if delta < acked || delta > acked+ambig {
			r.violate("final: entity %d counter %d outside [%d,%d] (acked-write loss or phantom)",
				e, delta, acked, acked+ambig)
		}
	}
	// No acked-write loss at the store layer: everything the dead boot
	// primary accepted into the replicated log must exist on a survivor. A
	// trailing record can legitimately be primary-local (accepted but never
	// quorum-acked before the kill), so tolerate a one-record straggle.
	for p := range r.deadStore {
		dead := r.d.StoreBackends[storeRF*p]
		deadKeys, err := dead.List("replog/rec/")
		if err != nil {
			continue
		}
		surv := make(map[string]bool)
		for rr := 1; rr < storeRF; rr++ {
			keys, err := r.d.StoreBackends[storeRF*p+rr].List("replog/rec/")
			if err != nil {
				continue
			}
			for _, k := range keys {
				surv[k] = true
			}
		}
		missing := 0
		for _, k := range deadKeys {
			if !surv[k] {
				missing++
			}
		}
		if missing > 1 {
			r.violate("final: store part %d lost %d acked log records on failover", p, missing)
		}
	}
}

// nodeP99 is the worst server-side submit p99 across the fleet, read from
// each node's ops registry.
func (r *runner) nodeP99() time.Duration {
	var worst time.Duration
	for _, n := range r.d.Nodes {
		reg := n.Ops()
		if reg == nil {
			continue
		}
		if _, _, p99, ok := reg.Summary("aeon_node_submit_seconds"); ok && p99 > worst {
			worst = p99
		}
	}
	return worst
}
