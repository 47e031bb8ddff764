package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cluster"
	"aeon/internal/ownership"
)

// Directory maps contexts to their hosting servers (§ 5.1 "Context
// Mapping"). In a replicated deployment the authoritative copy is the
// replication log, whose records every node's directory applies; hosts and
// clients cache it. This in-process directory models the cached mapping:
// lookups are cheap, and for a staleness window after a migration, routing
// to a moved context reports the old server so the runtime can charge the
// forwarding hop the paper describes ("s1 will forward those events to s2
// directly and notify source host to update its context map").
//
// The directory is striped the same way as the context registry: per-event
// operations (Locate, Route, Place, Move, Forget) touch only the shard the
// context hashes to, so events on distinct contexts never serialize here.
// HostedOn, the whole-directory read, walks the shards one at a time; it
// serves the eManager's control plane, not the event hot path.
//
// The event hot path, which holds the *Context, comes here only where a
// message crosses servers (the forwarding window is a property of the remote
// sender's stale map): routeOf answers every other read from the placement
// cached on the context for as long as gen has not moved.
type Directory struct {
	staleFor time.Duration
	// gen counts the mutations that can change an answer Route has already
	// given — Move, MoveBatch, Forget, a Place over a different host — and
	// not the placement of a new context. It is bumped inside the shard
	// lock(s), so a reader that loads gen after the bump probes after the
	// mutation.
	gen    atomic.Uint64
	shards [shardCount]dirShard
}

type dirShard struct {
	mu    sync.RWMutex
	loc   map[ownership.ID]cluster.ServerID
	moved map[ownership.ID]movedRecord
}

type movedRecord struct {
	old cluster.ServerID
	at  clock.Instant
}

// expire drops the shard's closed forwarding windows; the caller holds sh.mu
// for writing.
func (d *Directory) expire(sh *dirShard, now clock.Instant) {
	for id, rec := range sh.moved {
		if now.Sub(rec.at) >= d.staleFor {
			delete(sh.moved, id)
		}
	}
}

// NewDirectory returns an empty directory whose moved-context forwarding
// window is staleFor.
func NewDirectory(staleFor time.Duration) *Directory {
	d := &Directory{staleFor: staleFor}
	for i := range d.shards {
		d.shards[i].loc = make(map[ownership.ID]cluster.ServerID)
		d.shards[i].moved = make(map[ownership.ID]movedRecord)
	}
	return d
}

func (d *Directory) shard(id ownership.ID) *dirShard {
	return &d.shards[shardFor(id)]
}

// Place records the initial placement of a context.
func (d *Directory) Place(id ownership.ID, s cluster.ServerID) {
	sh := d.shard(id)
	sh.mu.Lock()
	if old, ok := sh.loc[id]; ok && old != s {
		d.gen.Add(1)
	}
	sh.loc[id] = s
	sh.mu.Unlock()
}

// Locate returns the current host of a context.
func (d *Directory) Locate(id ownership.ID) (cluster.ServerID, bool) {
	sh := d.shard(id)
	sh.mu.RLock()
	s, ok := sh.loc[id]
	sh.mu.RUnlock()
	return s, ok
}

// Route returns the host of a context plus, when the context migrated
// within the staleness window, the old host a stale cache would still point
// at (the caller charges the extra forwarding hop).
func (d *Directory) Route(id ownership.ID) (host cluster.ServerID, staleVia cluster.ServerID, forwarded bool, ok bool) {
	return d.routeAt(id, clock.Now())
}

// routeAt is Route as read at instant now.
func (d *Directory) routeAt(id ownership.ID, now clock.Instant) (host cluster.ServerID, staleVia cluster.ServerID, forwarded bool, ok bool) {
	sh := d.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s, ok := sh.loc[id]
	if !ok {
		return 0, 0, false, false
	}
	if rec, moved := sh.moved[id]; moved && now.Sub(rec.at) < d.staleFor {
		return s, rec.old, true, true
	}
	return s, 0, false, true
}

// A context's cached placement is one word: the directory generation it was
// read at above placedHostBits, the host below. Zero is "nothing cached"
// (server IDs start at 1), and a host that does not fit is not cached.
const (
	placedHostBits = 24
	placedHostMask = 1<<placedHostBits - 1
)

// routeOf is Locate for a caller that holds the context's runtime entry: a
// generation compare and one word until the next move of any context, a probe
// after it. The generation is read before the probe, so a racing move can only
// leave a tag that is already stale. Whether the context's forwarding window
// is open is not this read's business: the host is the same either way.
func (d *Directory) routeOf(c *Context) (cluster.ServerID, bool) {
	gen := d.gen.Load() << placedHostBits
	if w := c.placed.Load(); w&^placedHostMask == gen && w&placedHostMask != 0 {
		return cluster.ServerID(w & placedHostMask), true
	}
	host, ok := d.Locate(c.id)
	if ok && host > 0 && host <= placedHostMask {
		c.placed.Store(gen | uint64(host))
	}
	return host, ok
}

// Move rehosts a context and opens its forwarding window.
func (d *Directory) Move(id ownership.ID, to cluster.ServerID) error {
	sh := d.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, ok := sh.loc[id]
	if !ok {
		return fmt.Errorf("%v: %w", id, ErrUnknownContext)
	}
	now := clock.Now()
	d.expire(sh, now)
	sh.loc[id] = to
	sh.moved[id] = movedRecord{old: old, at: now}
	d.gen.Add(1)
	return nil
}

// MoveBatch rehosts a whole migration group in one atomic directory update
// with a single staleness epoch: every involved shard is locked (in index
// order, so concurrent batches never deadlock) before any member moves, so
// an observer never sees the group split across servers, and every member's
// forwarding window opens at the same instant — one stale-cache generation
// for the whole group instead of N per-member windows (§ 5.2, batched). An
// unknown member fails the whole batch with no moves applied.
func (d *Directory) MoveBatch(ids []ownership.ID, to cluster.ServerID) error {
	// Bucket the group by shard; lock the involved shards in index order.
	var byShard [shardCount][]ownership.ID
	for _, id := range ids {
		s := shardFor(id)
		byShard[s] = append(byShard[s], id)
	}
	locked := make([]int, 0, len(ids))
	for si := range byShard {
		if len(byShard[si]) > 0 {
			d.shards[si].mu.Lock()
			locked = append(locked, si)
		}
	}
	defer func() {
		for _, si := range locked {
			d.shards[si].mu.Unlock()
		}
	}()
	// Validate under the locks: all-or-nothing.
	for _, si := range locked {
		sh := &d.shards[si]
		for _, id := range byShard[si] {
			if _, ok := sh.loc[id]; !ok {
				return fmt.Errorf("%v: %w", id, ErrUnknownContext)
			}
		}
	}
	// Apply: one epoch timestamp for the whole group.
	epoch := clock.Now()
	for _, si := range locked {
		sh := &d.shards[si]
		d.expire(sh, epoch)
		for _, id := range byShard[si] {
			old := sh.loc[id]
			sh.loc[id] = to
			if old != to {
				sh.moved[id] = movedRecord{old: old, at: epoch}
			}
		}
	}
	d.gen.Add(1)
	return nil
}

// Forget removes a context from the directory.
func (d *Directory) Forget(id ownership.ID) {
	sh := d.shard(id)
	sh.mu.Lock()
	delete(sh.loc, id)
	delete(sh.moved, id)
	d.gen.Add(1)
	sh.mu.Unlock()
}

// HostedOn returns the contexts currently placed on the given server.
func (d *Directory) HostedOn(s cluster.ServerID) []ownership.ID {
	var out []ownership.ID
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		for id, host := range sh.loc {
			if host == s {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}
