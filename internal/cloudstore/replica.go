package cloudstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"aeon/internal/schema"
)

// KV is one replicated set: the value and the version the primary assigned.
type KV struct {
	Key string
	Val []byte
	Ver uint64
}

// KD is one replicated delete: the tombstone version the primary assigned.
type KD struct {
	Key string
	Ver uint64
}

// Commit is the unit of replication a primary write forwards to followers.
// Versions are primary-assigned, so followers converge to primary order by
// applying each key's highest version (see OpApply).
type Commit struct {
	Sets []KV
	Dels []KD
}

// maxFailovers bounds how many view changes one logical operation will chase
// before giving up and surfacing the underlying error. Anything past two
// epoch bumps means the partition has no majority of live replicas.
const maxFailovers = 4

// Replicated is a replicated-partition client: it executes operations
// against the partition's current primary and acknowledges a write only
// once it is durable on a majority of the replica set.
//
// View convention: fence epochs start at 1 and the primary for epoch e is
// replicas[(e-1) % len(replicas)]. Every client derives the same primary
// from the same epoch, so the fence epoch alone names the view. Every
// operation — reads included — carries its epoch to the replica it
// addresses, and a replica that has accepted a newer fence refuses it with
// ErrFenced; the client then re-derives its view from the replicas' fence
// epochs and retries at the primary that epoch names.
//
// Quorum discipline: a write is acknowledged only when the primary executed
// it AND at least ⌊n/2⌋ followers accepted the fenced Apply — a majority of
// the set, the primary included. Failover (Promote) likewise only takes
// effect once a majority of replicas hold the new fence. Any two majorities
// intersect, so a client still acting for a deposed primary meets the newer
// fence on at least one replica of its write path and its write is never
// acknowledged — that intersection, not the fence check of any single
// follower, is what prevents split-brain. The flip side is honest
// unavailability: a client partitioned onto a minority of the set (e.g. one
// that can reach only a stale primary) gets ErrUnavailable instead of a
// degraded ack. A 2-replica set therefore cannot fail over — deployments
// that need to survive a replica loss run 3 replicas per partition.
//
// Known limits (resync/anti-entropy is future work): a replica that missed
// commits while unreachable is not re-synced when it returns — the fence
// only keeps it from serving a deposed view — and a promoted primary serves
// the commits *it* saw, which for writes acknowledged by the other majority
// member may lag until those keys are written again.
type Replicated struct {
	Typed

	part     int
	replicas []Doer

	mu      sync.Mutex
	epoch   uint64
	primary int

	// fenceAdvances counts adopted epoch bumps (failovers observed by this
	// client); quorumFailures counts writes and fence spreads that could
	// not reach a majority. onFence, when set, fires on every adopted
	// advance — the ops plane turns it into a store.fence_advance event.
	fenceAdvances  atomic.Uint64
	quorumFailures atomic.Uint64
	onFence        atomic.Pointer[func(part int, epoch uint64)]
}

var _ API = (*Replicated)(nil)

// NewReplicated returns a client for one partition served by the given
// replicas. All clients of a fresh partition start at epoch 1 with
// replicas[0] as primary; clients joining after a failover discover the
// real epoch on their first operation.
func NewReplicated(part int, replicas ...Doer) *Replicated {
	if len(replicas) == 0 {
		panic("cloudstore: NewReplicated needs at least one replica")
	}
	r := &Replicated{part: part, replicas: replicas, epoch: 1, primary: 0}
	r.Typed = NewTyped(r)
	return r
}

// View reports the client's current fence epoch and primary index (the ops
// plane exports the epoch; tests use it to observe failovers).
func (r *Replicated) View() (epoch uint64, primary int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch, r.primary
}

// Part reports the partition index this client serves.
func (r *Replicated) Part() int { return r.part }

// FenceAdvances counts the epoch bumps this client has adopted (its
// observed failovers).
func (r *Replicated) FenceAdvances() uint64 { return r.fenceAdvances.Load() }

// QuorumFailures counts writes and fence spreads refused because a majority
// of the replica set was unreachable.
func (r *Replicated) QuorumFailures() uint64 { return r.quorumFailures.Load() }

// SetOnFenceAdvance installs a callback fired (outside the view lock) each
// time this client adopts a newer fence epoch.
func (r *Replicated) SetOnFenceAdvance(fn func(part int, epoch uint64)) {
	r.onFence.Store(&fn)
}

// quorum is the majority size of the replica set; followerQuorum is how many
// follower acks a write needs on top of the primary's own copy to reach it.
func (r *Replicated) quorum() int         { return len(r.replicas)/2 + 1 }
func (r *Replicated) followerQuorum() int { return len(r.replicas) / 2 }

func (r *Replicated) adopt(epoch uint64) {
	r.mu.Lock()
	advanced := epoch > r.epoch
	if advanced {
		r.epoch = epoch
		r.primary = int((epoch - 1) % uint64(len(r.replicas)))
	}
	r.mu.Unlock()
	if advanced {
		r.fenceAdvances.Add(1)
		if fn := r.onFence.Load(); fn != nil {
			(*fn)(r.part, epoch)
		}
	}
}

// refresh re-derives the view from the replicas' accepted fence epochs after
// an ErrFenced: whoever fenced us recorded a higher epoch on at least one
// reachable replica.
func (r *Replicated) refresh() {
	max := uint64(0)
	for _, rep := range r.replicas {
		if res, err := rep.Do(Op{Kind: OpFenceEpoch, Fence: &Fence{Part: r.part}}); err == nil && res.Version > max {
			max = res.Version
		}
	}
	r.adopt(max)
}

// failoverFrom fences a new epoch past fromEpoch onto the replica set: the
// epoch's designated primary must accept the Promote, and the fence must
// then reach a majority of the set before the new view serves. Requiring a
// majority of fence-holders is what makes the fence meaningful — a write
// acked under an older epoch needed a majority too, so the two sets
// intersect and a stale writer is refused by at least one replica on its
// path. Promote refusing with ErrFenced means someone else already moved
// the view forward — adopt theirs.
func (r *Replicated) failoverFrom(fromEpoch uint64) error {
	n := uint64(len(r.replicas))
	for i := uint64(1); i <= n; i++ {
		e := fromEpoch + i
		idx := int((e - 1) % n)
		promote := Op{Kind: OpPromote, Fence: &Fence{Part: r.part, Epoch: e}}
		got, err := r.replicas[idx].Do(promote)
		switch {
		case errors.Is(err, ErrFenced):
			r.adopt(got.Version)
			return nil
		case err != nil:
			continue // unreachable — try the replica the next epoch maps to
		}
		// Spread the fence to the rest of the set; the promotion is
		// effective once a majority (the new primary included) holds it.
		holders := 1
		for j, rep := range r.replicas {
			if j == idx {
				continue
			}
			g, perr := rep.Do(promote)
			switch {
			case perr == nil:
				holders++
			case errors.Is(perr, ErrFenced):
				r.adopt(g.Version)
				return nil
			}
		}
		if holders < r.quorum() {
			r.quorumFailures.Add(1)
			return fmt.Errorf("partition %d: fence %d held by %d/%d replicas, need %d: %w",
				r.part, e, holders, len(r.replicas), r.quorum(), ErrUnavailable)
		}
		r.adopt(e)
		return nil
	}
	return ErrUnavailable
}

// Do runs op against the current primary under the view's fence, chasing
// fence changes and failing over past dead primaries, up to maxFailovers
// view changes. Reads are served by the primary alone: a deposed primary
// that learned the newer epoch refuses them instead of serving a stale view.
// (One that never learned it — unreachable from every newer-view client —
// can still serve reads of its old view; closing that needs read quorums or
// leases and is documented as a limit above.) Writes execute on the primary
// — a CAS stays strictly per-key there, so CAS-sequenced protocols like the
// replication log's commit point keep their semantics — and are acknowledged
// only once a majority holds them.
func (r *Replicated) Do(op Op) (Result, error) {
	if !op.Kind.valid() || op.Kind.replica() {
		return Result{}, fmt.Errorf("cloudstore: %v is not a client operation", op.Kind)
	}
	var lastErr error
	for attempt := 0; attempt <= maxFailovers; attempt++ {
		r.mu.Lock()
		pi, e := r.primary, r.epoch
		r.mu.Unlock()
		op.Fence = &Fence{Part: r.part, Epoch: e}
		res, err := r.replicas[pi].Do(op)
		if err == nil && !op.Kind.reads() {
			err = r.commit(e, pi, commitOf(op, res))
		}
		switch {
		case err == nil:
			return res, nil
		case schema.CodeOf(err).Class() == schema.ExecutedFailed:
			// The store ran the op and this is its answer (key state), not a
			// replica-health signal: it surfaces unchanged.
			return Result{}, err
		case errors.Is(err, ErrFenced):
			// Our view is stale: someone fenced a newer epoch. Re-derive it
			// and retry at the primary that epoch names.
			r.refresh()
			lastErr = err
		default:
			// Primary unreachable, or the write could not reach a majority
			// (ErrUnavailable or a transport error): fence the next epoch
			// onto the surviving replicas. If no majority is reachable the
			// failover refuses too and the error surfaces — never a
			// degraded ack.
			if ferr := r.failoverFrom(e); ferr != nil {
				return Result{}, err
			}
			lastErr = err
		}
	}
	return Result{}, lastErr
}

// commitOf derives the commit a primary write forwards to followers. The
// store assigns a batch contiguous versions in sorted key order under its
// lock — one per key, present or missing — so the returned high-water
// version determines every key's version.
func commitOf(op Op, res Result) Commit {
	switch op.Kind {
	case OpPut, OpCAS:
		return Commit{Sets: []KV{{Key: op.Key, Val: op.Value, Ver: res.Version}}}
	case OpDelete:
		return Commit{Dels: []KD{{Key: op.Key, Ver: res.Version}}}
	case OpPutBatch, OpCreateBatch:
		keys := sortedKeys(op.Entries)
		first := res.Version - uint64(len(keys)) + 1
		sets := make([]KV, len(keys))
		for i, k := range keys {
			sets[i] = KV{Key: k, Val: op.Entries[k], Ver: first + uint64(i)}
		}
		return Commit{Sets: sets}
	case OpDeleteBatch:
		keys := append([]string(nil), op.Keys...)
		sort.Strings(keys)
		first := res.Version - uint64(len(keys)) + 1
		dels := make([]KD, len(keys))
		for i, k := range keys {
			dels[i] = KD{Key: k, Ver: first + uint64(i)}
		}
		return Commit{Dels: dels}
	}
	return Commit{}
}

// commit forwards a write to every non-primary replica under the epoch it
// was performed at and gates the ack on a majority. An ErrFenced from any
// follower aborts the ack outright — the write happened on a deposed
// primary. Short of ⌊n/2⌋ follower acks the write is not acknowledged
// either: a client that can reach the primary but not enough of the rest of
// the set (a partial partition — exactly the window where another client
// may be failing over) surfaces ErrUnavailable instead of acking a write
// the next view may never see.
func (r *Replicated) commit(epoch uint64, primaryIdx int, c Commit) error {
	apply := Op{Kind: OpApply, Fence: &Fence{Part: r.part, Epoch: epoch}, Commit: c}
	acks := 0
	var lastErr error
	for i, rep := range r.replicas {
		if i == primaryIdx {
			continue
		}
		switch _, err := rep.Do(apply); {
		case err == nil:
			acks++
		case errors.Is(err, ErrFenced):
			return err
		default:
			lastErr = err
		}
	}
	if acks < r.followerQuorum() {
		r.quorumFailures.Add(1)
		return fmt.Errorf("partition %d: write at epoch %d reached %d/%d followers, need %d for a majority (last: %v): %w",
			r.part, epoch, acks, len(r.replicas)-1, r.followerQuorum(), lastErr, ErrUnavailable)
	}
	return nil
}
