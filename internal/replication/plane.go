package replication

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

var (
	// ErrClosed is returned when submitting to a closed plane.
	ErrClosed = errors.New("replication: plane closed")
	// ErrReplicaLagging is returned when WaitFor times out before the local
	// replica reaches the requested sequence.
	ErrReplicaLagging error = schema.CodeReplicaLagging
	// ErrVirtualID is returned when a captured mutation names a virtual-join
	// context. Virtuals are minted per process, in local query order — the
	// same ID names different contexts on different nodes (or none), so a
	// logged mutation referencing one could never apply deterministically.
	ErrVirtualID = errors.New("replication: virtual-join contexts are process-local and cannot appear in replicated mutations")
)

// maxAppendBatch bounds how many queued mutations ride one log record (one
// CAS round). Contention on the log amortizes across everything queued
// while the previous append was in flight.
const maxAppendBatch = 64

// poll is the tailer's fallback for records whose notify hint was lost: it
// bounds staleness under frame loss.
const poll = 200 * time.Millisecond

// Config tunes a replication plane.
type Config struct {
	// Origin identifies this node in appended records; apply results are
	// delivered back to waiters only for records this plane originated, so
	// two planes of one deployment must not share an origin.
	Origin transport.NodeID
}

// Result is the apply outcome of one mutation: the ID the log sequence
// assigned (context creations), the server ID (server additions), and the
// deterministic apply error, if any.
type Result struct {
	ID     ownership.ID
	Server cluster.ServerID
	Err    error
}

type outcome struct {
	res Result
	err error
}

type appendReq struct {
	mut Mutation
	out chan outcome
}

// Plane is one node's attachment to the replicated ownership-metadata
// control plane: it captures this process's structural mutations into the
// log (implementing core.Replicator) and tails the log to keep the local
// ownership-graph and cluster replicas in lockstep with the fleet.
type Plane struct {
	rt     *core.Runtime
	store  cloudstore.API
	cfg    Config
	notify func(seq uint64)

	// applyMu serializes log applies: the appender, the tailer, and
	// CatchUp callers all funnel through it, so every record applies
	// exactly once, in sequence order.
	applyMu sync.Mutex

	// mu guards applied/closed; cond wakes WaitFor waiters.
	mu      sync.Mutex
	cond    *sync.Cond
	applied uint64
	closed  bool

	waiterMu sync.Mutex
	waiters  map[uint64]chan []Result

	pending chan *appendReq
	wake    chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	// lastErr holds the most recent CatchUp failure (cleared on success):
	// the tailer retries silently, so a *persistent* failure — store down,
	// or a terminal one like an undecodable record wedging the replica at
	// its sequence — is surfaced here instead of vanishing.
	lastErr atomic.Pointer[error]

	appends, conflicts, applies, notifies atomic.Uint64

	// paused suspends the tailer (fault injection: a paused replica
	// serves a stale view and its lag-gated submits block, exactly like a
	// node whose notify links and poll reads stall). The node's own
	// appends still apply — pause models a lagging *tailer*, not a dead
	// store link.
	paused atomic.Bool

	// headSeen is the highest log sequence this replica has been told
	// exists (notify hints and its own appends); applied can lag it while
	// the tailer catches up, and head-applied is the replica's lag.
	headSeen atomic.Uint64
}

var _ core.Replicator = (*Plane)(nil)

// New builds a plane for a runtime over the (authoritative or mesh-backed)
// cloud store. Call SetNotify before Start to wire the propagation hint,
// then Start to begin tailing; the plane is typically also installed on the
// runtime with rt.SetReplicator(p).
func New(rt *core.Runtime, store cloudstore.API, cfg Config) *Plane {
	p := &Plane{
		rt:      rt,
		store:   store,
		cfg:     cfg,
		waiters: make(map[uint64]chan []Result),
		pending: make(chan *appendReq, maxAppendBatch),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// SetNotify installs the propagation hint: fn is called (on the appender
// goroutine) with each sequence this plane appends, and should hint the
// peers — best-effort; the tailer's poll covers lost hints. Call before
// Start.
func (p *Plane) SetNotify(fn func(seq uint64)) { p.notify = fn }

// Start launches the appender and tailer and synchronously replays the log
// into the local replica, so a (re)joining node has caught up before it
// serves. The returned error reports an unreachable or failing store —
// callers whose store node may not be up yet can treat it as advisory (the
// tailer keeps retrying).
func (p *Plane) Start() error {
	tick, stopTick := clock.Tick(poll)
	p.wg.Add(2)
	go p.appendLoop()
	go p.tailLoop(tick, stopTick)
	return p.CatchUp()
}

// Close stops the plane's goroutines. In-flight submissions fail with
// ErrClosed (their mutations may still have been appended — shutdown during
// an append is ambiguous like any distributed commit with a lost ack).
func (p *Plane) Close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Applied returns the sequence of the last log record applied locally.
func (p *Plane) Applied() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.applied
}

// Appends returns how many records this plane appended.
func (p *Plane) Appends() uint64 { return p.appends.Load() }

// Conflicts returns how many CAS append conflicts this plane re-based
// through.
func (p *Plane) Conflicts() uint64 { return p.conflicts.Load() }

// Applies returns how many log records this replica applied (own and
// foreign).
func (p *Plane) Applies() uint64 { return p.applies.Load() }

// Notified returns how many notify hints reached this plane (Poke calls).
func (p *Plane) Notified() uint64 { return p.notifies.Load() }

// Poke hints that the log has reached at least seq: a node received a
// replicate-notify frame. Idempotent and non-blocking — duplicated or
// reordered frames at worst wake the tailer needlessly, and a dropped frame
// is covered by the poll.
func (p *Plane) Poke(seq uint64) {
	p.notifies.Add(1)
	p.observeHead(seq)
	if p.Applied() >= seq {
		return
	}
	p.kick()
}

// observeHead raises the head high-water mark to at least seq.
func (p *Plane) observeHead(seq uint64) {
	for {
		cur := p.headSeen.Load()
		if seq <= cur || p.headSeen.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Head returns the highest log sequence this replica knows exists — at
// least Applied, advanced further by notify hints. Head-Applied is the
// replica's current lag.
func (p *Plane) Head() uint64 {
	if h, a := p.headSeen.Load(), p.Applied(); h > a {
		return h
	} else {
		return a
	}
}

func (p *Plane) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// WaitFor blocks until the local replica has applied at least seq, kicking
// an immediate catch-up. It returns ErrReplicaLagging when the timeout
// elapses first — the admission gate for submits carrying a sequence the
// replica has not reached.
func (p *Plane) WaitFor(seq uint64, timeout time.Duration) error {
	if p.Applied() >= seq {
		return nil
	}
	p.kick()
	expired := false // guarded by mu
	timer := clock.AfterFunc(timeout, func() {
		// Set and broadcast under mu, so a waiter can never see the flag
		// clear, decide to sleep, and miss this wakeup.
		p.mu.Lock()
		expired = true
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.applied < seq && !p.closed {
		if expired {
			return fmt.Errorf("replica at seq %d, need %d: %w", p.applied, seq, ErrReplicaLagging)
		}
		p.cond.Wait()
	}
	if p.applied < seq {
		return ErrClosed
	}
	return nil
}

// LastError returns the most recent CatchUp failure, or nil when the last
// catch-up reached the durable tail cleanly. The tailer retries failures
// silently on its poll, so this — together with a stalled Applied() — is
// how a wedged replica (store outage, undecodable record) is diagnosed.
func (p *Plane) LastError() error {
	if e := p.lastErr.Load(); e != nil {
		return *e
	}
	return nil
}

// CatchUp applies every durable log record the local replica has not seen,
// in sequence order. Safe to call concurrently (applies serialize) and
// idempotent per record. Correctness comes from probing record keys one
// past the applied sequence — never from the head high-water mark.
func (p *Plane) CatchUp() error {
	err := p.catchUp()
	if err == nil {
		p.lastErr.Store(nil)
	} else {
		p.lastErr.Store(&err)
	}
	return err
}

func (p *Plane) catchUp() error {
	p.applyMu.Lock()
	defer p.applyMu.Unlock()
	for {
		next := p.Applied() + 1
		raw, _, err := p.store.Get(recKey(next))
		if err != nil {
			if errors.Is(err, cloudstore.ErrNotFound) {
				return nil // at the durable tail
			}
			return err
		}
		rec, err := decodeRecord(raw)
		if err != nil {
			return err
		}
		if rec.Seq != next {
			return fmt.Errorf("replication: record %d carries seq %d", next, rec.Seq)
		}
		p.applyLocked(rec)
	}
}

// applyLocked executes one record against the local replica and publishes
// the new applied sequence. Waiter delivery precedes the applied-sequence
// publication, so an appender that observed applied ≥ seq is guaranteed its
// results are buffered. Caller holds applyMu.
func (p *Plane) applyLocked(rec Record) {
	results := make([]Result, len(rec.Muts))
	for i, m := range rec.Muts {
		results[i] = p.applyMutation(m)
	}
	p.applies.Add(1)
	if rec.Origin == p.cfg.Origin {
		p.waiterMu.Lock()
		if ch, ok := p.waiters[rec.Seq]; ok {
			ch <- results
			delete(p.waiters, rec.Seq)
		}
		p.waiterMu.Unlock()
	}
	p.mu.Lock()
	p.applied = rec.Seq
	p.cond.Broadcast()
	p.mu.Unlock()
}

// applyMutation executes one mutation. Every outcome — including the error
// — is a deterministic function of the replicated state, so replicas can
// never diverge on whether a mutation took effect.
func (p *Plane) applyMutation(m Mutation) Result {
	switch m.Op {
	case OpNewContext:
		id, err := p.rt.ApplyCreateContext(m.Class, m.Server, m.Owners...)
		return Result{ID: id, Server: m.Server, Err: err}
	case OpAddEdge:
		return Result{Err: p.rt.Graph().AddEdge(m.Parent, m.Child)}
	case OpRemoveEdge:
		return Result{Err: p.rt.Graph().RemoveEdge(m.Parent, m.Child)}
	case OpDetach:
		return Result{ID: m.Target, Err: p.rt.ApplyDestroyContext(m.Target)}
	case OpRemoveContext:
		// Applied with detach semantics, NOT the graph's edgeless-only
		// RemoveContext: a replica that minted a process-local virtual join
		// over the target still carries a virtual parent edge, and an
		// edgeless-only apply would fail there while succeeding fleet-wide
		// — divergence. Detaching strips any such local edges; the named
		// structure ends identical on every replica, and the edgeless
		// contract was already enforced at capture (Plane.RemoveContext).
		return Result{ID: m.Target, Err: p.rt.ApplyDestroyContext(m.Target)}
	case OpAddServer:
		s := p.rt.Cluster().AddServer(m.Profile)
		return Result{Server: s.ID()}
	case OpRemoveServer:
		// Force-removed: validated by the capturing node; replica hosted
		// counters are routing metadata and must not veto membership.
		return Result{Server: m.Server, Err: p.rt.Cluster().ForceRemoveServer(m.Server)}
	case OpMove:
		// Every node moves the group here, in log order; a node that
		// restarts replays it like any other record.
		return Result{Server: m.Server, Err: p.rt.RehostBatch(m.Members, m.Server)}
	default:
		return Result{Err: fmt.Errorf("replication: unknown mutation %v", m.Op)}
	}
}

// ownRecordAt reports whether the record at seq exists and was appended by
// this plane. It is the commit probe for a CAS whose acknowledgment was
// lost: the appender is serial and has applied every earlier sequence, so a
// record at seq carrying our origin can only be the in-flight batch.
func (p *Plane) ownRecordAt(seq uint64) bool {
	raw, _, err := p.store.Get(recKey(seq))
	if err != nil {
		return false
	}
	rec, err := decodeRecord(raw)
	return err == nil && rec.Origin == p.cfg.Origin && rec.Seq == seq
}

// checkIDs rejects mutations naming virtual-join contexts at capture,
// before anything reaches the log: virtual IDs are process-local (see
// ownership.VirtualIDBase), so the same ID means different things — or
// nothing — on other replicas, and applying such a record could never be
// deterministic.
func checkIDs(ids ...ownership.ID) error {
	for _, id := range ids {
		if id.IsVirtual() {
			return fmt.Errorf("%v: %w", id, ErrVirtualID)
		}
	}
	return nil
}

// submit queues one mutation for the appender and waits for its apply
// outcome.
func (p *Plane) submit(m Mutation) (Result, error) {
	req := &appendReq{mut: m, out: make(chan outcome, 1)}
	select {
	case p.pending <- req:
	case <-p.stop:
		return Result{}, ErrClosed
	}
	select {
	case o := <-req.out:
		return o.res, o.err
	case <-p.stop:
		return Result{}, ErrClosed
	}
}

// appendLoop drains queued mutations into batched log appends.
func (p *Plane) appendLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case req := <-p.pending:
			batch := []*appendReq{req}
			for len(batch) < maxAppendBatch {
				select {
				case r := <-p.pending:
					batch = append(batch, r)
				default:
					goto flush
				}
			}
		flush:
			p.appendBatch(batch)
		}
	}
}

// appendBatch appends one record carrying every batched mutation: catch up,
// guess seq = applied+1, CAS-create the record there; on conflict re-read
// (apply the interloping record), re-base, retry with backoff. After the
// record is durable the local apply delivers each mutation's result to its
// waiter.
func (p *Plane) appendBatch(batch []*appendReq) {
	muts := make([]Mutation, len(batch))
	for i, r := range batch {
		muts[i] = r.mut
	}
	var seq uint64
	var resCh chan []Result
	err := cloudstore.Retry(cloudstore.DefaultRetry(), func() error {
		// Re-base: apply everything other writers appended since the last
		// attempt so the next-sequence guess is fresh.
		if err := p.CatchUp(); err != nil {
			return err
		}
		seq = p.Applied() + 1
		payload, err := encodeRecord(Record{Seq: seq, Origin: p.cfg.Origin, Muts: muts})
		if err != nil {
			return err
		}
		ch := make(chan []Result, 1)
		p.waiterMu.Lock()
		p.waiters[seq] = ch
		p.waiterMu.Unlock()
		if _, err := p.store.CAS(recKey(seq), 0, payload); err != nil {
			if !errors.Is(err, cloudstore.ErrVersionMismatch) {
				// Ambiguous outcome: over a mesh-backed store the CAS — or
				// just its acknowledgment — may have been lost after the
				// record landed. Probe the record key: our own record there
				// means the append committed and must be reported as
				// success, or the caller would retry a mutation the whole
				// fleet is about to apply (same shape as the node runtime's
				// transfer commit probe). A failed probe aborts with the
				// ambiguity unresolved — the tailer still applies the
				// record if it committed, convergence over exactly-once.
				if p.ownRecordAt(seq) {
					resCh = ch
					return nil
				}
			} else {
				p.conflicts.Add(1)
			}
			p.waiterMu.Lock()
			delete(p.waiters, seq)
			p.waiterMu.Unlock()
			return err
		}
		resCh = ch
		return nil
	})
	if err != nil {
		for _, r := range batch {
			r.out <- outcome{err: err}
		}
		return
	}
	p.appends.Add(1)
	advanceHead(p.store, seq)
	if err := p.CatchUp(); err != nil {
		// The record is durable but the store failed before the local apply
		// could read it back: the mutations committed fleet-wide, yet their
		// results are unknown here. Surface the ambiguity; the tailer will
		// apply the record once the store recovers.
		p.waiterMu.Lock()
		delete(p.waiters, seq)
		p.waiterMu.Unlock()
		for _, r := range batch {
			r.out <- outcome{err: fmt.Errorf("appended at seq %d but local apply failed: %w", seq, err)}
		}
		return
	}
	// CatchUp returned with applied ≥ seq, and delivery precedes the
	// applied publication, so the results are buffered.
	results := <-resCh
	for i, r := range batch {
		r.out <- outcome{res: results[i]}
	}
	if p.notify != nil {
		p.notify(seq)
	}
}

// tailLoop applies records appended by peers: immediately on a notify hint
// (Poke), and on the fallback poll for hints that were lost.
func (p *Plane) tailLoop(tick <-chan time.Time, stopTick func()) {
	defer p.wg.Done()
	defer stopTick()
	for {
		select {
		case <-p.stop:
			return
		case <-p.wake:
		case <-tick:
		}
		if p.paused.Load() {
			continue
		}
		_ = p.CatchUp() // store hiccups are retried next tick
	}
}

// Pause suspends the tailer's log applies, injecting replication lag: the
// local replica stops learning peers' mutations until Resume, so its
// applied sequence falls behind the head and lag-gated submit admission
// holds callers at the gate. The chaos harness uses this as its
// replication-lag fault class. Pausing an already paused plane is a no-op.
func (p *Plane) Pause() { p.paused.Store(true) }

// Resume lifts a Pause and kicks the tailer so catch-up starts
// immediately rather than on the next poll tick.
func (p *Plane) Resume() {
	p.paused.Store(false)
	p.kick()
}

// --- core.Replicator + fleet topology API ---

// CreateContext implements core.Replicator: sequence a context creation
// through the log and return the ID the log order assigned.
func (p *Plane) CreateContext(class string, srv cluster.ServerID, owners []ownership.ID) (ownership.ID, error) {
	if err := checkIDs(owners...); err != nil {
		return ownership.None, err
	}
	res, err := p.submit(Mutation{Op: OpNewContext, Class: class, Server: srv, Owners: owners})
	if err != nil {
		return ownership.None, err
	}
	return res.ID, res.Err
}

// AddEdge implements core.Replicator.
func (p *Plane) AddEdge(parent, child ownership.ID) error {
	if err := checkIDs(parent, child); err != nil {
		return err
	}
	res, err := p.submit(Mutation{Op: OpAddEdge, Parent: parent, Child: child})
	if err != nil {
		return err
	}
	return res.Err
}

// Move implements core.Replicator: it commits a migration group's move to
// server `to` by appending one record, which every replica applies.
func (p *Plane) Move(members []ownership.ID, to cluster.ServerID) error {
	if err := checkIDs(members...); err != nil {
		return err
	}
	res, err := p.submit(Mutation{Op: OpMove, Members: members, Server: to})
	if err != nil {
		return err
	}
	return res.Err
}

// RemoveEdge sequences a direct-ownership edge removal through the log.
// The runtime exposes no edge-removal entry point of its own (applications
// mutate edges on the Graph directly), and a direct Graph call would
// diverge the replicas — so in a replicated deployment this method IS the
// way to remove an edge; same for RemoveContext below.
func (p *Plane) RemoveEdge(parent, child ownership.ID) error {
	if err := checkIDs(parent, child); err != nil {
		return err
	}
	res, err := p.submit(Mutation{Op: OpRemoveEdge, Parent: parent, Child: child})
	if err != nil {
		return err
	}
	return res.Err
}

// DestroyContext implements core.Replicator: detach-and-remove.
func (p *Plane) DestroyContext(id ownership.ID) error {
	if err := checkIDs(id); err != nil {
		return err
	}
	res, err := p.submit(Mutation{Op: OpDetach, Target: id})
	if err != nil {
		return err
	}
	return res.Err
}

// RemoveContext sequences an edgeless context removal through the log. The
// edgeless check runs here, at capture, counting only named edges —
// process-local virtual-join edges don't exist on other replicas and are
// stripped by the apply — because the apply itself must be unconditional to
// stay deterministic.
func (p *Plane) RemoveContext(id ownership.ID) error {
	if err := checkIDs(id); err != nil {
		return err
	}
	view := p.rt.Graph().Snapshot()
	parents, err := view.Parents(id)
	if err != nil {
		return err
	}
	children, err := view.Children(id)
	if err != nil {
		return err
	}
	for _, e := range append(parents, children...) {
		if !e.IsVirtual() {
			return fmt.Errorf("%v: %w", id, ownership.ErrHasEdges)
		}
	}
	res, err := p.submit(Mutation{Op: OpRemoveContext, Target: id})
	if err != nil {
		return err
	}
	return res.Err
}

// AddServer sequences a cluster scale-out through the log and returns the
// ID of the server the fleet provisioned.
func (p *Plane) AddServer(profile cluster.Profile) (cluster.ServerID, error) {
	res, err := p.submit(Mutation{Op: OpAddServer, Profile: profile})
	if err != nil {
		return 0, err
	}
	return res.Server, res.Err
}

// RemoveServer sequences a cluster scale-in through the log. The drain is
// validated here, at capture, against the origin's counters — the same
// check single-process cluster.RemoveServer enforces — because the apply is
// forced on every replica (stale replica counters must not veto
// membership). The validation is advisory against races like any
// hosted-count check: a concurrent placement landing between it and the
// append stays addressable through the directory but loses its server, so
// callers drain first (DrainAndRemove does).
func (p *Plane) RemoveServer(id cluster.ServerID) error {
	s, ok := p.rt.Cluster().Server(id)
	if !ok {
		return fmt.Errorf("remove %v: %w", id, cluster.ErrNoSuchServer)
	}
	if n := s.Hosted(); n != 0 {
		return fmt.Errorf("replication: server %v still hosts %d contexts", id, n)
	}
	res, err := p.submit(Mutation{Op: OpRemoveServer, Server: id})
	if err != nil {
		return err
	}
	return res.Err
}
