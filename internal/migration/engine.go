// Package migration implements AEON's elastic migration as a batched,
// pipelined engine over the paper's five-step protocol (§ 5.2). Where the
// original eManager looped the protocol over every member of a placement
// group — N journaled WAL rounds, N stop/δ windows, N state-transfer
// sleeps, and a group split across servers until the loop finished — the
// engine runs ONE protocol round per group:
//
//	I   one journaled intent + one prepare exchange with the destination
//	II  one stop exchange with the source, then one group stop window in
//	    which membership is re-snapshotted (children created mid-migration
//	    are adopted, never left behind) and sealed into the WAL
//	III one δ settle
//	IV  one coalesced state transfer (group bytes summed, protocol CPU
//	    charged once per endpoint pair); once the destination holds the
//	    state the move commits as one placement record (Runtime.CommitMove:
//	    one replicated-log append that every node applies as a bulk
//	    directory remap with a single staleness epoch), and the commit is
//	    journaled
//	V   one resume + one journal clear — after the move converged, so a
//	    crash mid-recovery never orphans the journal entry
//
// The placement record is the paper's published mapping (§ 5.2): the log
// is where every node, a restarted one included, learns the move. It is
// appended only after the transfer installed, never at the δ settle: a
// third node that applied it earlier would forward events into a
// destination that does not hold the group's state yet. The group stays
// stopped until the log says whether the record landed; a move that did not
// commit resumes on the source with its journal at StepStopped, so Recover
// re-runs the transfer from whatever the source acknowledged since.
//
// Migrations of disjoint groups run concurrently on a bounded worker pool
// behind a Future-style async API, so policy loops and server drains are not
// serialized on δ and transfer sleeps. Group disjointness is enforced by a
// member-claim table; overlapping requests fail fast with
// ErrAlreadyMigrating rather than queueing into a deadlock.
//
// Stop-window safety: holding every member simultaneously could cycle with
// an event that asynchronously activates several children (the per-member
// protocol never held more than one lock, so it never had this problem).
// The engine therefore acquires members top-down with a per-member timeout
// and, on collision, releases everything and retries after an exponential
// backoff — deadlock avoidance by preemption. See Engine.stopGroup.
package migration

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/metrics"
	"aeon/internal/ownership"
	"aeon/internal/transport"
)

// ManagerNode is the logical network location of the migration coordinator
// (the eManager service).
const ManagerNode = transport.NodeID(-2)

// ErrAlreadyMigrating is returned when a requested group overlaps a migration
// still in flight. It is core.ErrMigrating, so a commanded migration's
// collision crosses the wire typed (nothing moved: safe to ask again).
var ErrAlreadyMigrating = core.ErrMigrating

// Step identifies a journaled protocol step; the WAL records the last step
// durably completed so Recover can roll the group forward.
type Step int

// Protocol steps, in order.
const (
	StepPrepared    Step = 1 // intent journaled, destination prepared
	StepStopped     Step = 2 // group stopped, membership sealed
	StepTransferred Step = 4 // state transferred, move committed
)

// Step 3 journaled a published mapping; the log's move record replaced it.
// An entry a build with that step left at 3 recovers like any entry whose
// move has not committed.

// stopTimeout bounds each member's acquisition in a group stop window; a
// collision with an in-flight multi-context event retries after a backoff.
const stopTimeout = 25 * time.Millisecond

// Config tunes the engine.
type Config struct {
	// Delta is the paper's δ: the settle time between stopping the source
	// and transferring its state (step III). Charged once per group.
	Delta time.Duration
	// ProtocolWork is the CPU consumed on each endpoint per protocol round
	// (message handling, serialization); the batched protocol charges it
	// once per group instead of once per member.
	ProtocolWork time.Duration
	// MaxConcurrent bounds how many group migrations run at once on the
	// worker pool. Zero means 4.
	MaxConcurrent int
	// Transfer, when set, performs the group's state transfer in step IV —
	// the node runtime ships serialized member state over the transport mesh
	// to the destination node here. It runs inside the stop window, after
	// the bandwidth charge and before the move commits; an error aborts
	// the migration with the WAL record left behind for Recover. nil keeps
	// the single-process semantics (state stays in the shared registry, so
	// there is nothing to move).
	Transfer TransferFunc
}

// TransferFunc moves a stopped group's state to the destination. totalBytes
// is the coalesced state size already charged against both NICs; the
// implementation must leave the group's TransferBytes accounting to the
// engine (it lands on both endpoints either way).
type TransferFunc func(members []ownership.ID, from, to cluster.ServerID, totalBytes int) error

// Hooks are test instrumentation points; leave zero in production.
type Hooks struct {
	// AfterStep runs after each journaled protocol step; returning an error
	// abandons the migration as a simulated eManager crash — the WAL entry
	// stays behind for Recover, and the group's stop locks are released (a
	// real source host times the dead coordinator out and reopens).
	AfterStep func(root ownership.ID, step Step) error
	// InStopWindow runs while the whole group is stopped, before membership
	// is re-snapshotted; tests create children here to pin that mid-stop
	// creations land on the destination.
	InStopWindow func(root ownership.ID)
}

// Engine runs batched group migrations over a runtime, journaling into a
// cloud store.
type Engine struct {
	cfg   Config
	rt    *core.Runtime
	store cloudstore.API

	// Hooks may be set before the engine is used (tests only).
	Hooks Hooks

	// sem bounds concurrently executing group migrations.
	sem chan struct{}

	// mu guards the member-claim table enforcing group disjointness.
	mu       sync.Mutex
	inflight map[ownership.ID]ownership.ID // member → claiming group root

	// Groups counts completed group moves; Members counts members moved
	// (one group of N counts N). GroupTime records wall time per group
	// move; StopTime records each group's full-stop window — the
	// event-unavailability cost of the move. StopWindows counts stop/δ
	// windows opened (the batched protocol opens one per group, the serial
	// baseline one per member). BytesMoved sums coalesced state transfer.
	Groups      metrics.Counter
	Members     metrics.Counter
	GroupTime   metrics.Histogram
	StopTime    metrics.Histogram
	StopWindows metrics.Counter
	// StopRetries counts preempted group stop attempts (lock collisions
	// with in-flight events).
	StopRetries metrics.Counter
	// Recovered counts groups rolled forward by Recover.
	Recovered metrics.Counter
	// BytesMoved sums state bytes transferred across all groups.
	BytesMoved metrics.Counter
}

// NewEngine creates an engine for a runtime, journaling into store (the
// local in-memory store, or a node runtime's RemoteStore over the mesh).
func NewEngine(rt *core.Runtime, store cloudstore.API, cfg Config) *Engine {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	return &Engine{
		cfg:      cfg,
		rt:       rt,
		store:    store,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		inflight: make(map[ownership.ID]ownership.ID),
	}
}

// Future is the handle of an asynchronous group migration.
type Future struct {
	done chan struct{}
	err  error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

func (f *Future) complete(err error) {
	f.err = err
	close(f.done)
}

func completedFuture(err error) *Future {
	f := newFuture()
	f.complete(err)
	return f
}

// Wait blocks until the migration finishes and returns its error.
func (f *Future) Wait() error {
	<-f.done
	return f.err
}

// Migrate moves one context (without its subtree) to another server using
// one batched protocol round. It blocks until the context is live on the
// destination.
func (e *Engine) Migrate(id ownership.ID, to cluster.ServerID) error {
	return e.MigrateAsync(id, to).Wait()
}

// MigrateAsync is Migrate without the wait: the returned Future completes
// when the context is live on the destination. Validation and the group
// claim happen synchronously, so a conflicting request fails fast.
func (e *Engine) MigrateAsync(id ownership.ID, to cluster.ServerID) *Future {
	return e.submit(id, to, false)
}

// MigrateGroup moves a context together with every transitively owned
// context currently co-located with it — one WAL record, one stop/δ window,
// one bulk remap, one coalesced transfer for the whole subtree. It blocks
// until the group is live on the destination.
func (e *Engine) MigrateGroup(root ownership.ID, to cluster.ServerID) error {
	return e.MigrateGroupAsync(root, to).Wait()
}

// MigrateGroupAsync is MigrateGroup without the wait. Validation and the
// group claim happen synchronously; the protocol runs on the engine's
// bounded worker pool, so disjoint groups migrate concurrently while
// overlapping requests fail fast with ErrAlreadyMigrating.
func (e *Engine) MigrateGroupAsync(root ownership.ID, to cluster.ServerID) *Future {
	return e.submit(root, to, true)
}

// submit validates, claims, and enqueues one group migration. The root is
// claimed before its placement is read: reading first would let a
// concurrent migration of the same root finish in between, leaving this
// request to run against a stale source server (splitting the group it
// would then compute against the old host).
func (e *Engine) submit(root ownership.ID, to cluster.ServerID, subtree bool) *Future {
	if err := e.claim(root, []ownership.ID{root}); err != nil {
		return completedFuture(err)
	}
	dir := e.rt.Directory()
	from, ok := dir.Locate(root)
	if !ok {
		e.unclaim(root)
		return completedFuture(fmt.Errorf("%v: %w", root, core.ErrUnknownContext))
	}
	if from == to {
		e.unclaim(root)
		return completedFuture(nil)
	}
	if _, ok := e.rt.Cluster().Server(to); !ok {
		e.unclaim(root)
		return completedFuture(fmt.Errorf("migrate to %v: %w", to, cluster.ErrNoSuchServer))
	}
	members := []ownership.ID{root}
	if subtree {
		// Placement is stable now: every member is pinned by the claims
		// extended below, and events never move contexts.
		members = e.groupMembers(root, from)
		if err := e.claimExtend(root, members); err != nil {
			e.unclaim(root)
			return completedFuture(err)
		}
	}
	f := newFuture()
	go func() {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		// Release the claim before completing the future: a waiter reacting
		// to the outcome (a retry, WAL recovery) must not find the group
		// still claimed.
		err := e.run(root, from, to, members, subtree)
		e.unclaim(root)
		f.complete(err)
	}()
	return f
}

// groupMembers returns the migration group of root in top-down (BFS)
// ownership order: root first, then every transitive descendant currently
// co-located with it — including descendants reached through a remote
// intermediate (a Room's Item still moves with the Room when the Player
// between them lives elsewhere). The order approximates event
// path-activation order so the group stop acquires locks in a downward
// direction; the rare DAG shape where BFS inverts an ownership edge is
// absorbed by the stop's timeout-and-retry preemption.
func (e *Engine) groupMembers(root ownership.ID, from cluster.ServerID) []ownership.ID {
	view := e.rt.Graph().Snapshot()
	dir := e.rt.Directory()
	members := []ownership.ID{root}
	frontier := []ownership.ID{root}
	seen := map[ownership.ID]bool{root: true}
	for i := 0; i < len(frontier); i++ {
		children, err := view.Children(frontier[i])
		if err != nil {
			continue
		}
		for _, c := range children {
			if seen[c] {
				continue
			}
			seen[c] = true
			// Traverse through every descendant, co-located or not; only
			// co-located ones join the group.
			frontier = append(frontier, c)
			if srv, ok := dir.Locate(c); ok && srv == from {
				members = append(members, c)
			}
		}
	}
	return members
}

// claim marks every member as in flight under root, atomically: if any
// member is already claimed, nothing is claimed and ErrAlreadyMigrating is
// returned.
func (e *Engine) claim(root ownership.ID, members []ownership.ID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range members {
		if other, ok := e.inflight[id]; ok {
			return fmt.Errorf("%v (group %v): %w", id, other, ErrAlreadyMigrating)
		}
	}
	for _, id := range members {
		e.inflight[id] = root
	}
	return nil
}

// claimExtend atomically adds members to root's existing claim: if any is
// held by a different group, nothing changes and ErrAlreadyMigrating is
// returned. IDs already claimed under root (the root itself) pass through.
func (e *Engine) claimExtend(root ownership.ID, members []ownership.ID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range members {
		if other, ok := e.inflight[id]; ok && other != root {
			return fmt.Errorf("%v (group %v): %w", id, other, ErrAlreadyMigrating)
		}
	}
	for _, id := range members {
		e.inflight[id] = root
	}
	return nil
}

// tryClaimMember claims one additional member for an in-flight group (a
// child adopted inside the stop window). It reports false when the member
// belongs to another in-flight group, which then owns its move.
func (e *Engine) tryClaimMember(root, id ownership.ID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.inflight[id]; ok {
		return false
	}
	e.inflight[id] = root
	return true
}

// unclaimMember releases a single member claim (an adoption that could not
// be locked in time).
func (e *Engine) unclaimMember(id ownership.ID) {
	e.mu.Lock()
	delete(e.inflight, id)
	e.mu.Unlock()
}

// unclaim releases every member claimed under root.
func (e *Engine) unclaim(root ownership.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, r := range e.inflight {
		if r == root {
			delete(e.inflight, id)
		}
	}
}

// groupWAL is the journal record for one group migration. One record covers
// the whole group; Members is the membership sealed inside the stop window
// (step II), so a recovering eManager knows exactly which contexts the move
// covered even for children adopted mid-migration.
type groupWAL struct {
	Root    ownership.ID
	Members []ownership.ID
	From    cluster.ServerID
	To      cluster.ServerID
	Step    Step
}

func walKey(root ownership.ID) string { return fmt.Sprintf("wal/migration/%d", uint64(root)) }

func encodeWAL(w groupWAL) []byte {
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes()
}

func decodeWAL(b []byte) (groupWAL, error) {
	var w groupWAL
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w)
	return w, err
}

// journal persists the WAL record and fires the AfterStep crash hook.
func (e *Engine) journal(w groupWAL) error {
	if _, err := e.store.Put(walKey(w.Root), encodeWAL(w)); err != nil {
		return fmt.Errorf("journal step %d: %w", w.Step, err)
	}
	if e.Hooks.AfterStep != nil {
		if err := e.Hooks.AfterStep(w.Root, w.Step); err != nil {
			return err
		}
	}
	return nil
}

// run executes one batched protocol round for the whole group.
func (e *Engine) run(root ownership.ID, from, to cluster.ServerID, members []ownership.ID, subtree bool) error {
	start := time.Now()
	net := e.rt.Cluster().Net()
	srcServer, _ := e.rt.Cluster().Server(from)
	dstServer, ok := e.rt.Cluster().Server(to)
	if !ok {
		return fmt.Errorf("migrate to %v: %w", to, cluster.ErrNoSuchServer)
	}

	wal := groupWAL{Root: root, Members: members, From: from, To: to, Step: StepPrepared}

	// Step I: journal the group intent, then prepare the destination — it
	// creates queues for every member from one message — and await its ack.
	if err := e.journal(wal); err != nil {
		return err
	}
	if err := net.Hop(ManagerNode, to, 128); err != nil {
		return err
	}
	if err := net.Hop(to, ManagerNode, 64); err != nil {
		return err
	}

	// Step II: one stop exchange with the source for the whole group, then
	// the group stop window: every member exclusively activated at once.
	if err := net.Hop(ManagerNode, from, 128); err != nil {
		return err
	}
	if err := net.Hop(from, ManagerNode, 64); err != nil {
		return err
	}
	release, err := e.stopGroup(members)
	if err != nil {
		return fmt.Errorf("group stop %v: %w", root, err)
	}
	// release is re-wrapped when children are adopted below; the deferred
	// call must see the final value. Every layer is idempotent, so the
	// explicit resume in step V plus this safety net is fine.
	defer func() { release() }()
	stopStart := time.Now()

	if e.Hooks.InStopWindow != nil {
		e.Hooks.InStopWindow(root)
	}

	// Re-snapshot membership inside the stop window: a context created
	// under the group between the prepare snapshot and the stop would
	// otherwise be left behind on the source, splitting the group.
	if subtree {
		members, release = e.adoptNewMembers(root, from, members, release)
	}
	wal.Step = StepStopped
	wal.Members = members
	if err := e.journal(wal); err != nil {
		return err
	}

	// Step III: one δ settle for the whole group.
	time.Sleep(e.cfg.Delta)

	// Step IV: coalesced state transfer. Group bytes are summed into one
	// bandwidth charge and the protocol CPU is charged once per endpoint
	// pair (the slower endpoint bounds the exchange), then the move commits
	// for the whole group in one placement record — a single staleness
	// epoch for every member.
	total := 0
	for _, id := range members {
		c, err := e.rt.Context(id)
		if err != nil {
			return err
		}
		total += c.StateBytes()
	}
	slow := dstServer
	if srcServer != nil && srcServer.Profile().Speed < dstServer.Profile().Speed {
		slow = srcServer
	}
	slow.Work(2 * e.cfg.ProtocolWork)
	mbps := dstServer.Profile().MigrationMBps
	if srcServer != nil && srcServer.Profile().MigrationMBps < mbps {
		mbps = srcServer.Profile().MigrationMBps
	}
	// The modeled NIC sleep stands in for the state copy only in
	// single-process mode; a configured Transfer hook moves the real bytes
	// over the real wire below, and charging both would double the group's
	// stop window.
	if mbps > 0 && total > 0 && e.cfg.Transfer == nil {
		time.Sleep(time.Duration(float64(total) / (mbps * 1e6) * float64(time.Second)))
	}
	if srcServer != nil {
		srcServer.AddTransferBytes(int64(total))
	}
	dstServer.AddTransferBytes(int64(total))
	// Final adoption sweep right before the commit: children created during
	// the δ and transfer sleeps were placed on the still-current source and
	// would be stranded there. Newborns carry factory state, so they ride
	// the move without re-running the transfer.
	if subtree {
		members, release = e.adoptNewMembers(root, from, members, release)
	}
	// Multi-process deployments ship the serialized member states to the
	// destination node here — after the final adoption sweep, so the frame
	// carries the complete membership (stragglers ride along with factory
	// state), and before the move commits. A failed transfer aborts the
	// migration with the WAL record intact for Recover.
	if e.cfg.Transfer != nil {
		if err := e.cfg.Transfer(members, from, to, total); err != nil {
			return fmt.Errorf("state transfer %v→%v: %w", from, to, err)
		}
	}
	// The commit point: with the state installed, the placement record
	// moves the group on every node. CommitMove returns once the log says
	// whether it landed; only then may the group resume.
	if err := e.rt.CommitMove(members, to); err != nil {
		return err
	}
	wal.Step = StepTransferred
	wal.Members = members
	if err := e.journal(wal); err != nil {
		return err
	}

	// Step V: the destination confirms and the whole group resumes —
	// release reopens every member at once — and only after the move has
	// converged does the journal entry clear, so a crash anywhere above
	// (including during recovery) still leaves a record to roll forward.
	stopDur := time.Since(stopStart)
	release()
	if err := e.store.Delete(walKey(root)); err != nil {
		return fmt.Errorf("journal step V: %w", err)
	}

	e.Groups.Inc()
	e.Members.Add(uint64(len(members)))
	e.StopWindows.Inc()
	e.StopTime.Record(stopDur)
	e.GroupTime.Record(time.Since(start))
	e.BytesMoved.Add(uint64(total))
	return nil
}

// adoptNewMembers re-snapshots the group and folds in members that appeared
// since the last snapshot: each is claimed, exclusively locked (their
// queues are empty or nearly so — events routed at them queue on their
// locked ancestors), and appended to the member list and the release chain.
// A newcomer claimed by another in-flight group is skipped (that group owns
// its move), as is one still held by a straggler event (left behind with
// the per-member protocol's semantics rather than failing the group).
// Returns the grown member list and the re-wrapped release.
func (e *Engine) adoptNewMembers(root ownership.ID, from cluster.ServerID, members []ownership.ID, release func()) ([]ownership.ID, func()) {
	have := make(map[ownership.ID]bool, len(members))
	for _, id := range members {
		have[id] = true
	}
	for _, id := range e.groupMembers(root, from) {
		if have[id] {
			continue
		}
		if !e.tryClaimMember(root, id) {
			continue
		}
		rel, err := e.rt.LockForMigrationTimeout(id, stopTimeout)
		if err != nil {
			e.unclaimMember(id)
			continue
		}
		prev := release
		release = func() { rel(); prev() }
		members = append(members, id)
	}
	return members, release
}

// stopGroup opens the group stop window: every member exclusively activated
// simultaneously. Attempts that collide with an in-flight multi-context
// event are preempted by the per-member timeout, fully released, and
// retried after an exponential backoff (see the package comment for why
// this cannot simply block).
func (e *Engine) stopGroup(members []ownership.ID) (func(), error) {
	backoff := 500 * time.Microsecond
	for {
		release, err := e.rt.LockGroupForMigration(members, stopTimeout)
		if err == nil {
			return release, nil
		}
		if !errors.Is(err, core.ErrAcquireTimeout) {
			return nil, err
		}
		e.StopRetries.Inc()
		time.Sleep(backoff)
		if backoff < 16*time.Millisecond {
			backoff *= 2
		}
	}
}

// Recover scans the migration journal and rolls forward every group
// migration from server `from` a crashed eManager left behind — every
// source's when from is zero. The WAL record is deleted only after the
// group's move has converged on the destination, so a second crash during
// recovery loses nothing: the next Recover finds the record again and
// finishes the job.
func (e *Engine) Recover(from cluster.ServerID) error {
	keys, err := e.store.List("wal/migration/")
	if err != nil {
		return err
	}
	for _, k := range keys {
		raw, _, err := e.store.Get(k)
		if err != nil {
			continue
		}
		wal, err := decodeWAL(raw)
		if err != nil {
			return fmt.Errorf("corrupt WAL %q: %w", k, err)
		}
		if from != 0 && wal.From != from {
			continue
		}
		if err := e.recoverGroup(wal); err != nil {
			return fmt.Errorf("recover group %v: %w", wal.Root, err)
		}
		// Only now, with every member live on the destination, does the
		// journal entry clear. A re-run that went through the full protocol
		// already cleared it in its own step V.
		if err := e.store.Delete(k); err != nil && !errors.Is(err, cloudstore.ErrNotFound) {
			return err
		}
		e.Recovered.Inc()
	}
	return nil
}

// recoverGroup converges one journaled group onto its destination. Its
// callers catch the replica up with the log first (Manager.Recover, a
// node's boot), so a move whose record landed already places the root on
// the destination and needs nothing more. A move that never committed
// re-runs the batched protocol from the state the source holds now, and its
// move happens atomically in step IV under the group stop. Members sealed
// in the WAL that no longer sit with the root (crash between partial
// effects) are swept individually.
func (e *Engine) recoverGroup(w groupWAL) error {
	dir := e.rt.Directory()
	if cur, ok := dir.Locate(w.Root); ok && cur != w.To {
		if err := e.MigrateGroup(w.Root, w.To); err != nil {
			return err
		}
	}
	// Sweep sealed members the root's re-run did not cover (no longer
	// co-located with the root).
	for _, id := range w.Members {
		if cur, ok := dir.Locate(id); ok && cur != w.To {
			if err := e.Migrate(id, w.To); err != nil {
				return err
			}
		}
	}
	return nil
}
