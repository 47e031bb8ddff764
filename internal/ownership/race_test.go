package ownership

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGraphSnapshotRaceStress hammers the lock-free read API from many
// goroutines while mutators create and detach leaves and flip edges. Run
// with -race. Readers resolve one snapshot per "event" and assert that every
// answer is internally consistent within that snapshot:
//
//   - the dominator exists and is an ancestor-or-self of the target,
//   - the activation path starts at the dominator, ends at the target, and
//     every step is a direct-ownership edge,
//   - every child listed for a context names that context among its parents.
//
// A target picked from the shared pool may have been detached by the time
// the reader snapshots — that surfaces as ErrNotFound, never as a torn read.
func TestGraphSnapshotRaceStress(t *testing.T) {
	g := NewGraph()
	root, _ := g.AddContext("Root")
	var spine []ID
	for i := 0; i < 8; i++ {
		room, err := g.AddContext("Room", root)
		if err != nil {
			t.Fatal(err)
		}
		spine = append(spine, room)
	}

	var pool struct {
		sync.Mutex
		ids []ID
	}
	poolPick := func(rng *rand.Rand) (ID, bool) {
		pool.Lock()
		defer pool.Unlock()
		if len(pool.ids) == 0 {
			return None, false
		}
		return pool.ids[rng.Intn(len(pool.ids))], true
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		stop.Store(true)
		t.Errorf(format, args...)
	}

	// The mutators run a fixed budget of mutations each; the readers run
	// until they are done.
	const mutations = 2000
	var mutators sync.WaitGroup

	// Leaf mutator: creates single- and multi-owner leaves, detaches others.
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < mutations && !stop.Load(); i++ {
			switch rng.Intn(4) {
			case 0, 1: // single-owner leaf
				id, err := g.AddContext("Leaf", spine[rng.Intn(len(spine))])
				if err != nil {
					fail("AddContext: %v", err)
					return
				}
				pool.Lock()
				pool.ids = append(pool.ids, id)
				pool.Unlock()
			case 2: // shared leaf
				p1 := spine[rng.Intn(len(spine))]
				p2 := spine[rng.Intn(len(spine))]
				id, err := g.AddContext("Shared", p1, p2)
				if err != nil {
					fail("AddContext shared: %v", err)
					return
				}
				pool.Lock()
				pool.ids = append(pool.ids, id)
				pool.Unlock()
			case 3: // detach one pooled leaf
				pool.Lock()
				if n := len(pool.ids); n > 0 {
					i := rng.Intn(n)
					id := pool.ids[i]
					pool.ids[i] = pool.ids[n-1]
					pool.ids = pool.ids[:n-1]
					pool.Unlock()
					if err := g.DetachContext(id); err != nil {
						fail("DetachContext(%v): %v", id, err)
						return
					}
				} else {
					pool.Unlock()
				}
			}
		}
	}()

	// Edge mutator: flips extra spine edges (low index → high index only, so
	// no attempt can form a cycle).
	mutators.Add(1)
	go func() {
		defer mutators.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < mutations && !stop.Load(); i++ {
			i := rng.Intn(len(spine) - 1)
			j := i + 1 + rng.Intn(len(spine)-i-1)
			if rng.Intn(2) == 0 {
				if err := g.AddEdge(spine[i], spine[j]); err != nil && !errors.Is(err, ErrExists) {
					fail("AddEdge: %v", err)
					return
				}
			} else {
				if err := g.RemoveEdge(spine[i], spine[j]); err != nil && !errors.Is(err, ErrNotFound) {
					fail("RemoveEdge: %v", err)
					return
				}
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var lastVersion uint64
			for !stop.Load() {
				target := spine[rng.Intn(len(spine))]
				if rng.Intn(2) == 0 {
					if id, ok := poolPick(rng); ok {
						target = id
					}
				}
				dom, view, err := g.Resolve(target)
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // detached before we snapshotted
					}
					fail("Resolve(%v): %v", target, err)
					return
				}
				if v := view.Version(); v < lastVersion {
					fail("snapshot version went backwards: %d after %d", v, lastVersion)
					return
				} else {
					lastVersion = v
				}
				if !view.Contains(dom) || !view.Contains(target) {
					fail("Resolve(%v) view missing dom %v or target", target, dom)
					return
				}
				if dom != target && !view.Owns(dom, target) {
					fail("dom %v does not own target %v in its own snapshot", dom, target)
					return
				}
				path, err := view.Path(dom, target)
				if err != nil {
					fail("Path(%v,%v) in resolved view: %v", dom, target, err)
					return
				}
				if path[0] != dom || path[len(path)-1] != target {
					fail("path endpoints %v; want %v..%v", path, dom, target)
					return
				}
				for i := 0; i < len(path)-1; i++ {
					if !view.OwnsDirectly(path[i], path[i+1]) {
						fail("path step %v→%v is not an edge in the snapshot", path[i], path[i+1])
						return
					}
				}
				// Children listed by the snapshot must list us back.
				children, err := view.Children(target)
				if err != nil {
					fail("Children(%v): %v", target, err)
					return
				}
				for _, ch := range children {
					parents, err := view.Parents(ch)
					if err != nil {
						fail("child %v of %v missing from its own snapshot", ch, target)
						return
					}
					if !slices.Contains(parents, target) {
						fail("child %v does not list %v as parent in the same snapshot", ch, target)
						return
					}
				}
			}
		}(int64(100 + r))
	}

	mutators.Wait()
	stop.Store(true)
	wg.Wait()
}
