package ownership

import "sync/atomic"

// domCache memoizes dominator results — and beside each the immutable
// dominator→context activation path — for the snapshot(s) that share it. It
// is a lock-free open-addressing hash table: readers probe with two atomic
// loads per slot and never take a mutex. All inserts happen under the graph's
// writer mutex (dominator-cache fills re-validate snapshot currency there),
// so writers never race each other; a slot's value and path are stored before
// its key is published and never change afterwards, so any reader that
// observes a key observes both.
//
// Entries may be carried across snapshots, but only by mutations that prove
// every entry still holds: fresh-leaf creation runs the leafDomCacheStable
// audit, and RemoveContext (edgeless contexts only) cannot move any other
// context's dominator. Neither can change a path: a leaf and an edgeless
// context lie on no upward walk between two other contexts. Every other
// mutation — edge changes, detaches and virtual-join mints — publishes a
// fresh cache. The cache is consulted only after the caller has resolved the
// queried ID in its own snapshot, so a stale self-entry left behind by
// RemoveContext is unreachable.
type domCache struct {
	t atomic.Pointer[domTable]
}

type domTable struct {
	mask uint64
	keys []atomic.Uint64 // ID; 0 = empty slot (None is never a valid key)
	vals []atomic.Uint64 // valid once the slot's key is published
	// paths[i] is Snapshot.Path(vals[i], keys[i]), nil when the key is its own
	// dominator. Written once, before the key is published.
	paths [][]ID
	used  int // writer-side occupancy count
}

const domCacheMinSize = 64

func newDomCache() *domCache {
	c := &domCache{}
	c.t.Store(newDomTable(domCacheMinSize))
	return c
}

func newDomTable(size int) *domTable {
	return &domTable{
		mask:  uint64(size - 1),
		keys:  make([]atomic.Uint64, size),
		vals:  make([]atomic.Uint64, size),
		paths: make([][]ID, size),
	}
}

// get is the lock-free read path.
func (c *domCache) get(id ID) (dom ID, path []ID, ok bool) {
	t := c.t.Load()
	for i := mix64(uint64(id)) & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i].Load() {
		case 0:
			return None, nil, false
		case uint64(id):
			return ID(t.vals[i].Load()), t.paths[i], true
		}
	}
}

// put records id→dom and the activation path. The caller must hold the
// graph's writer mutex.
func (c *domCache) put(id, dom ID, path []ID) {
	t := c.t.Load()
	if (t.used+1)*4 > len(t.keys)*3 {
		t = c.grow(t)
	}
	t.insert(id, dom, path)
}

// insert stores into a table the writer owns exclusively.
func (t *domTable) insert(id, dom ID, path []ID) {
	for i := mix64(uint64(id)) & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i].Load() {
		case 0:
			// Value and path first, key second: publishing the key is what
			// makes the slot visible to lock-free readers.
			t.vals[i].Store(uint64(dom))
			t.paths[i] = path
			t.keys[i].Store(uint64(id))
			t.used++
			return
		case uint64(id):
			// A racing resolver computed the same entry; readers may already
			// hold it, so it stays as published.
			return
		}
	}
}

// grow republishes the entries into a table twice the size. Readers keep
// probing the old (now frozen) table until they reload the pointer.
func (c *domCache) grow(old *domTable) *domTable {
	nt := newDomTable(len(old.keys) * 2)
	old.each(func(k, v ID, path []ID) { nt.insert(k, v, path) })
	c.t.Store(nt)
	return nt
}

func (t *domTable) each(fn func(k, v ID, path []ID)) {
	for i := range t.keys {
		if k := t.keys[i].Load(); k != 0 {
			fn(ID(k), ID(t.vals[i].Load()), t.paths[i])
		}
	}
}

// mix64 is the splitmix64 finalizer: IDs are small sequential integers, and
// the finalizer spreads them over the table uniformly (same rationale as the
// core registry's shard hash).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
