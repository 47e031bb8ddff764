// Package emanager implements AEON's elasticity manager (§ 5): it maintains
// the authoritative context mapping and ownership network in cloud storage,
// migrates contexts between servers with the paper's five-step protocol
// (prepare → stop → δ remap → migrate event → resume), evaluates elasticity
// policies (resource utilization, server contention, SLA) against server
// telemetry, and provides the consistent snapshot API of § 5.3.
//
// Migration itself lives in the internal/migration engine: one batched
// protocol round per placement group, with disjoint groups moving
// concurrently on a bounded worker pool. The manager is an engine client —
// policy actions, rebalancing, and server drains launch asynchronous group
// migrations and join the futures, so the policy loop never serializes on
// δ-settle or state-transfer sleeps.
//
// The eManager itself is stateless: every migration step is journaled in
// the cloud store, so a crashed eManager can be replaced and the new one
// finishes in-flight migrations (Recover).
package emanager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/metrics"
	"aeon/internal/migration"
	"aeon/internal/ownership"
)

var (
	// ErrVetoed is returned when a constraint rejects an action.
	ErrVetoed = errors.New("emanager: action vetoed by constraint")
	// ErrNoTarget is returned when no destination server is available.
	ErrNoTarget = errors.New("emanager: no destination server available")
)

// Config tunes the manager.
type Config struct {
	// Delta is the paper's δ: the settle time between stopping the source
	// and publishing the new mapping (step III). The batched engine pays it
	// once per group, not once per member.
	Delta time.Duration
	// ProtocolWork is the CPU consumed on each endpoint per migration
	// protocol round (message handling, serialization); it scales with
	// instance speed and produces Figure 9's per-instance-type migration
	// throughput. The batched engine charges it once per group.
	ProtocolWork time.Duration
	// PollInterval is how often policies are evaluated.
	PollInterval time.Duration
	// MovableClasses restricts policy-driven migration to contexts of the
	// given classes (e.g. only Rooms move in the game); empty means any.
	MovableClasses []string
	// MigrateSubtrees moves a context together with the co-located contexts
	// it transitively owns, preserving locality. Honored everywhere a
	// migration is launched: policy actions, rebalancing, and server drains.
	MigrateSubtrees bool
	// MaxConcurrentMigrations bounds how many disjoint group migrations the
	// engine runs at once. Zero means the engine default (4).
	MaxConcurrentMigrations int
	// Transfer overrides the migration engine's state-transfer step: the
	// node runtime ships member state over the transport mesh to the
	// destination node here. nil keeps in-process transfer semantics.
	Transfer migration.TransferFunc
	// SyncReplica, when set, catches the local ownership/cluster replica up
	// with the fleet's replicated mutation log. Recovery paths call it
	// before replaying WAL or checkpoint records: those records name
	// context IDs assigned by log sequence, so they must be replayed
	// against the replicated graph, not whatever this process happened to
	// rebuild locally. nil means the topology is process-local (single
	// process, or a static multi-process deployment).
	SyncReplica func() error
	// Membership, when set, sequences cluster scale-out/scale-in through
	// the replicated mutation log so every node's cluster map applies the
	// change (the node runtime wires the replication plane here). nil
	// mutates the local cluster directly.
	Membership Membership
}

// Membership sequences cluster-membership mutations; the replication
// plane implements it in multi-process deployments.
type Membership interface {
	AddServer(p cluster.Profile) (cluster.ServerID, error)
	RemoveServer(id cluster.ServerID) error
}

// DefaultConfig returns production-ish defaults.
func DefaultConfig() Config {
	return Config{
		Delta:           2 * time.Millisecond,
		ProtocolWork:    1500 * time.Microsecond,
		PollInterval:    250 * time.Millisecond,
		MigrateSubtrees: true,
	}
}

// Manager is the elasticity manager.
type Manager struct {
	cfg    Config
	rt     *core.Runtime
	store  cloudstore.API
	engine *migration.Engine

	mu          sync.Mutex
	policies    []Policy
	constraints []Constraint

	// Migrations counts migrated contexts (group members) and MigrationTime
	// records per-group move durations (Figures 8/9 instrumentation). Both
	// alias the engine's counters; see Engine() for the full set (stop
	// windows, coalesced bytes, recoveries).
	Migrations    *metrics.Counter
	MigrationTime *metrics.Histogram

	stop chan struct{}
	done chan struct{}
}

// New creates a manager for a runtime, journaling into store — the local
// in-memory store, or (on a non-store node of a multi-process deployment) a
// RemoteStore reaching the authoritative one over the transport mesh.
func New(rt *core.Runtime, store cloudstore.API, cfg Config) *Manager {
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	engine := migration.NewEngine(rt, store, migration.Config{
		Delta:         cfg.Delta,
		ProtocolWork:  cfg.ProtocolWork,
		MaxConcurrent: cfg.MaxConcurrentMigrations,
		Transfer:      cfg.Transfer,
	})
	return &Manager{
		cfg:           cfg,
		rt:            rt,
		store:         store,
		engine:        engine,
		Migrations:    &engine.Members,
		MigrationTime: &engine.GroupTime,
	}
}

// Runtime returns the managed runtime.
func (m *Manager) Runtime() *core.Runtime { return m.rt }

// Store returns the backing cloud store.
func (m *Manager) Store() cloudstore.API { return m.store }

// Engine returns the migration engine (metrics, async API).
func (m *Manager) Engine() *migration.Engine { return m.engine }

// AddPolicy installs an elasticity policy.
func (m *Manager) AddPolicy(p Policy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.policies = append(m.policies, p)
}

// AddConstraint installs a Tuba-style constraint that can veto actions.
func (m *Manager) AddConstraint(c Constraint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.constraints = append(m.constraints, c)
}

// Start launches the policy evaluation loop; Stop shuts it down.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	tick, stopTick := clock.Tick(m.cfg.PollInterval)
	go m.loop(tick, stopTick, m.stop, m.done)
}

// Stop halts the policy loop and waits for it to exit.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (m *Manager) loop(tick <-chan time.Time, stopTick func(), stop, done chan struct{}) {
	defer close(done)
	defer stopTick()
	for {
		select {
		case <-stop:
			return
		case <-tick:
			m.Evaluate()
		}
	}
}

// Evaluate runs one policy round against current telemetry and applies the
// resulting actions (subject to constraints). Migrations launch onto the
// engine's worker pool and are joined at the end of the round, so N disjoint
// moves overlap their δ and transfer windows instead of queueing behind each
// other. It is called periodically by the loop and directly by tests.
func (m *Manager) Evaluate() {
	stats := m.CollectStats()
	m.mu.Lock()
	policies := append([]Policy(nil), m.policies...)
	m.mu.Unlock()
	var futures []*migration.Future
	for _, p := range policies {
		for _, action := range p.Decide(stats) {
			f, err := m.applyAsync(action)
			if err != nil &&
				!errors.Is(err, ErrVetoed) && !errors.Is(err, ErrNoTarget) {
				// Policy actions are advisory; failures surface in telemetry
				// on the next round.
				continue
			}
			if f != nil {
				futures = append(futures, f)
			}
		}
	}
	for _, f := range futures {
		// Outcomes feed back through telemetry, like every policy action.
		_ = f.Wait()
	}
}

// CollectStats gathers the per-server telemetry policies consume ("every
// server periodically sends its resource utilization data", § 5.2).
func (m *Manager) CollectStats() Stats {
	servers := m.rt.Cluster().Servers()
	st := Stats{
		RecentLatency: m.rt.RecentLatency(),
		Servers:       make([]ServerStat, 0, len(servers)),
	}
	for _, s := range servers {
		st.Servers = append(st.Servers, ServerStat{
			ID:          s.ID(),
			Profile:     s.Profile(),
			Utilization: s.Utilization(),
			Hosted:      s.Hosted(),
		})
	}
	return st
}

// Apply executes one elasticity action after constraint checks, blocking
// until it completes.
func (m *Manager) Apply(action Action) error {
	f, err := m.applyAsync(action)
	if err != nil {
		return err
	}
	if f != nil {
		return f.Wait()
	}
	return nil
}

// applyAsync executes one elasticity action after constraint checks.
// Migrations return a Future (the move runs on the engine pool); every other
// action completes synchronously with a nil Future.
func (m *Manager) applyAsync(action Action) (*migration.Future, error) {
	m.mu.Lock()
	constraints := append([]Constraint(nil), m.constraints...)
	m.mu.Unlock()
	for _, c := range constraints {
		if !c.Allow(action, m) {
			return nil, fmt.Errorf("%T: %w", action, ErrVetoed)
		}
	}
	switch a := action.(type) {
	case AddServer:
		return nil, m.addServer(a.Profile)
	case RemoveServer:
		return nil, m.DrainAndRemove(a.Server)
	case MigrateContext:
		to := a.To
		if to == 0 {
			var err error
			to, err = m.pickDestination(a.From)
			if err != nil {
				return nil, err
			}
		}
		if m.cfg.MigrateSubtrees {
			return m.engine.MigrateGroupAsync(a.Context, to), nil
		}
		return m.engine.MigrateAsync(a.Context, to), nil
	case Rebalance:
		return nil, m.rebalanceFrom(a.Server, a.Fraction)
	default:
		return nil, fmt.Errorf("emanager: unknown action %T", action)
	}
}

// pickDestination chooses the least-loaded other server ("the default
// algorithm tries to move contexts from overloaded hosts to underloaded
// ones", § 5.2).
func (m *Manager) pickDestination(from cluster.ServerID) (cluster.ServerID, error) {
	var best cluster.ServerID
	bestHosted := int(^uint(0) >> 1)
	for _, s := range m.rt.Cluster().Servers() {
		if s.ID() == from {
			continue
		}
		if h := s.Hosted(); h < bestHosted {
			bestHosted = h
			best = s.ID()
		}
	}
	if best == 0 {
		return 0, ErrNoTarget
	}
	return best, nil
}

// destPicker hands out least-loaded destinations for one concurrent sweep.
// Async group launches finish long after their destinations are chosen, so
// live Hosted() counts alone would send every group of the sweep to the
// same momentarily-least-loaded server; the picker layers its own tentative
// reservations on top.
type destPicker struct {
	m        *Manager
	reserved map[cluster.ServerID]int
}

func (m *Manager) newDestPicker() *destPicker {
	return &destPicker{m: m, reserved: make(map[cluster.ServerID]int)}
}

// pick chooses the least-loaded server other than from, counting weight
// (the approximate group size) against the winner for later picks.
func (p *destPicker) pick(from cluster.ServerID, weight int) (cluster.ServerID, error) {
	var best cluster.ServerID
	bestHosted := int(^uint(0) >> 1)
	for _, s := range p.m.rt.Cluster().Servers() {
		if s.ID() == from {
			continue
		}
		if h := s.Hosted() + p.reserved[s.ID()]; h < bestHosted {
			bestHosted = h
			best = s.ID()
		}
	}
	if best == 0 {
		return 0, ErrNoTarget
	}
	if weight < 1 {
		weight = 1
	}
	p.reserved[best] += weight
	return best, nil
}

// movableOn lists policy-movable contexts hosted on a server. One ownership
// snapshot serves every class lookup of the sweep.
func (m *Manager) movableOn(srv cluster.ServerID) []ownership.ID {
	hosted := m.rt.Directory().HostedOn(srv)
	view := m.rt.Graph().Snapshot()
	var out []ownership.ID
	for _, id := range hosted {
		if m.classAllowedIn(view, id) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *Manager) classAllowed(id ownership.ID) bool {
	return m.classAllowedIn(m.rt.Graph().Snapshot(), id)
}

func (m *Manager) classAllowedIn(view *ownership.Snapshot, id ownership.ID) bool {
	class, err := view.Class(id)
	if err != nil || class == ownership.VirtualClass {
		return false
	}
	if len(m.cfg.MovableClasses) == 0 {
		return true
	}
	for _, c := range m.cfg.MovableClasses {
		if c == class {
			return true
		}
	}
	return false
}

// rebalanceFrom moves the given fraction of movable contexts off a server.
// With MigrateSubtrees, each pick moves its whole co-located group; picks
// that an earlier group of this sweep already carried off are skipped (the
// old per-member loop would migrate them a second time, splitting the group
// it had just moved). Disjoint groups overlap on the engine pool.
func (m *Manager) rebalanceFrom(srv cluster.ServerID, fraction float64) error {
	movable := m.movableOn(srv)
	n := int(float64(len(movable)) * fraction)
	if n == 0 && len(movable) > 0 {
		n = 1
	}
	dir := m.rt.Directory()
	view := m.rt.Graph().Snapshot()
	picker := m.newDestPicker()
	var futures []*migration.Future
	for i := 0; i < n; i++ {
		if cur, ok := dir.Locate(movable[i]); !ok || cur != srv {
			continue // already moved with an earlier group
		}
		weight := 1
		if m.cfg.MigrateSubtrees {
			// Reserve the whole group's approximate size, not one slot.
			if desc, err := view.Desc(movable[i]); err == nil {
				for _, d := range desc {
					if cur, ok := dir.Locate(d); ok && cur == srv {
						weight++
					}
				}
			}
		}
		to, err := picker.pick(srv, weight)
		if err != nil {
			return err
		}
		if m.cfg.MigrateSubtrees {
			futures = append(futures, m.engine.MigrateGroupAsync(movable[i], to))
		} else {
			futures = append(futures, m.engine.MigrateAsync(movable[i], to))
		}
	}
	var firstErr error
	for _, f := range futures {
		if err := f.Wait(); err != nil && firstErr == nil &&
			!errors.Is(err, migration.ErrAlreadyMigrating) {
			// Overlap with an in-flight group is expected under concurrent
			// sweeps; the next poll round retries what remains.
			firstErr = err
		}
	}
	return firstErr
}

// maxDrainPasses bounds DrainAndRemove's sweep loop; each pass migrates
// every remaining placement group off the server, so the count only climbs
// when racing context creation keeps repopulating the source.
const maxDrainPasses = 64

// DrainAndRemove migrates everything off a server and releases it. With
// MigrateSubtrees it partitions the server's contexts into placement groups
// (hosted contexts with no hosted owner are group roots) and moves whole
// groups concurrently — one protocol round and one stop window per group —
// instead of a per-context loop that splits every group across servers
// mid-drain.
func (m *Manager) DrainAndRemove(srv cluster.ServerID) error {
	dir := m.rt.Directory()
	for pass := 0; ; pass++ {
		hosted := dir.HostedOn(srv)
		if len(hosted) == 0 {
			break
		}
		if pass >= maxDrainPasses {
			return fmt.Errorf("drain %v: %d contexts remain after %d passes",
				srv, len(hosted), pass)
		}
		roots := hosted
		var sizes map[ownership.ID]int
		if m.cfg.MigrateSubtrees {
			roots, sizes = drainGroups(m.rt.Graph().Snapshot(), hosted)
		}
		sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
		picker := m.newDestPicker()
		var futures []*migration.Future
		for _, root := range roots {
			to, err := picker.pick(srv, sizes[root])
			if err != nil {
				return err
			}
			if m.cfg.MigrateSubtrees {
				futures = append(futures, m.engine.MigrateGroupAsync(root, to))
			} else {
				futures = append(futures, m.engine.MigrateAsync(root, to))
			}
		}
		for _, f := range futures {
			if err := f.Wait(); err != nil &&
				!errors.Is(err, migration.ErrAlreadyMigrating) {
				// Overlapping groups (shared descendants) resolve on the
				// next pass; anything else fails the drain.
				return fmt.Errorf("drain %v: %w", srv, err)
			}
		}
	}
	return m.removeServer(srv)
}

// drainGroups partitions a server's hosted contexts into placement groups:
// a hosted context none of whose owners is also hosted there is a group
// root; every other hosted context is attributed to the root reached by
// climbing hosted owners (one of them, for multi-owned contexts — the
// group that wins the migration claim carries it). Returns the roots and
// each root's approximate member count, which destination picking uses as
// the reservation weight.
func drainGroups(view *ownership.Snapshot, hosted []ownership.ID) ([]ownership.ID, map[ownership.ID]int) {
	set := make(map[ownership.ID]bool, len(hosted))
	for _, id := range hosted {
		set[id] = true
	}
	rootOf := make(map[ownership.ID]ownership.ID, len(hosted))
	var findRoot func(id ownership.ID) ownership.ID
	findRoot = func(id ownership.ID) ownership.ID {
		if r, ok := rootOf[id]; ok {
			return r
		}
		rootOf[id] = id // self-placeholder; the graph is acyclic
		r := id
		if parents, err := view.Parents(id); err == nil {
			for _, p := range parents {
				if set[p] {
					r = findRoot(p)
					break
				}
			}
		}
		rootOf[id] = r
		return r
	}
	sizes := make(map[ownership.ID]int)
	var roots []ownership.ID
	for _, id := range hosted {
		r := findRoot(id)
		if sizes[r] == 0 {
			roots = append(roots, r)
		}
		sizes[r]++
	}
	return roots, sizes
}

// Migrate moves one context (without its subtree) to another server using
// the batched five-step protocol. It blocks until the context is live on the
// destination.
func (m *Manager) Migrate(id ownership.ID, to cluster.ServerID) error {
	return m.engine.Migrate(id, to)
}

// MigrateGroup migrates a context together with every transitively owned
// context currently co-located with it — one protocol round, one stop/δ
// window, one coalesced transfer for the whole group (a Room moves with its
// Players and Items, and stays whole throughout the move).
func (m *Manager) MigrateGroup(root ownership.ID, to cluster.ServerID) error {
	return m.engine.MigrateGroup(root, to)
}

// MigrateGroupAsync launches a group migration on the engine pool and
// returns its Future; disjoint groups move concurrently.
func (m *Manager) MigrateGroupAsync(root ownership.ID, to cluster.ServerID) *migration.Future {
	return m.engine.MigrateGroupAsync(root, to)
}

// Recover scans the migration journal and completes in-flight group
// migrations a crashed eManager left behind. Journal entries are cleared
// only after the group's move has converged, so a crash during recovery
// itself never orphans an in-flight migration. With a replicated topology
// the local replica is caught up with the mutation log first: WAL records
// name log-assigned context IDs, and a freshly restarted process has not
// necessarily applied the mutations that created them.
func (m *Manager) Recover() error {
	if err := m.syncReplica(); err != nil {
		return fmt.Errorf("recover: sync replica: %w", err)
	}
	return m.engine.Recover(0)
}

// syncReplica catches the local topology replica up with the fleet's
// mutation log, when one is wired.
func (m *Manager) syncReplica() error {
	if m.cfg.SyncReplica == nil {
		return nil
	}
	return m.cfg.SyncReplica()
}

// addServer provisions a server, through the replicated membership log when
// one is wired.
func (m *Manager) addServer(p cluster.Profile) error {
	if m.cfg.Membership != nil {
		_, err := m.cfg.Membership.AddServer(p)
		return err
	}
	m.rt.Cluster().AddServer(p)
	return nil
}

// removeServer releases a drained server, through the replicated membership
// log when one is wired.
func (m *Manager) removeServer(id cluster.ServerID) error {
	if m.cfg.Membership != nil {
		return m.cfg.Membership.RemoveServer(id)
	}
	return m.rt.Cluster().RemoveServer(id)
}
