package core

import (
	"sync"

	"aeon/internal/ownership"
)

// shardCount is the number of stripes used by the context registry and the
// placement directory. 64 comfortably exceeds the core counts we target
// (≤ 32) so independent events almost never collide on a stripe, while
// keeping the fixed footprint trivial (a few KB per structure). Power of two
// so shard selection is a mask, not a division.
const shardCount = 64

// shardFor maps a context ID to its stripe. IDs are small sequential
// integers, so they are mixed with a 64-bit finalizer (splitmix64's) first;
// taking the low bits of the raw ID would stripe fine today but would
// silently degenerate if ID allocation ever became structured (e.g. range
// partitioned per server).
func shardFor(id ownership.ID) uint64 {
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x & (shardCount - 1)
}

// registry is the striped replacement for the runtime's former global
// contexts map: one RWMutex-guarded map per shard, so context lookups and
// registrations on different shards never serialize against each other.
type registry struct {
	shards [shardCount]registryShard
}

type registryShard struct {
	mu sync.RWMutex
	m  map[ownership.ID]*Context
}

func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].m = make(map[ownership.ID]*Context)
	}
	return r
}

func (r *registry) shard(id ownership.ID) *registryShard {
	return &r.shards[shardFor(id)]
}

// get returns the registered context, if any.
func (r *registry) get(id ownership.ID) (*Context, bool) {
	s := r.shard(id)
	s.mu.RLock()
	c, ok := s.m[id]
	s.mu.RUnlock()
	return c, ok
}

// put registers a context unconditionally.
func (r *registry) put(id ownership.ID, c *Context) {
	s := r.shard(id)
	s.mu.Lock()
	s.m[id] = c
	s.mu.Unlock()
}

// getOrPut returns the registered context for id, or registers the one built
// by mk. loaded reports whether an existing entry was returned. mk runs
// under the shard lock, so losers of a registration race are never
// constructed twice and partially initialized contexts are never visible.
func (r *registry) getOrPut(id ownership.ID, mk func() *Context) (c *Context, loaded bool) {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.m[id]; ok {
		return c, true
	}
	c = mk()
	s.m[id] = c
	return c, false
}

// delete removes a context registration.
func (r *registry) delete(id ownership.ID) {
	s := r.shard(id)
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// all returns every registered context.
func (r *registry) all() []*Context {
	var out []*Context
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, c := range s.m {
			out = append(out, c)
		}
		s.mu.RUnlock()
	}
	return out
}

// len returns the number of registered contexts (sums shard sizes; the
// result is a consistent-enough estimate under concurrent mutation).
func (r *registry) len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}
