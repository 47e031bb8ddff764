package cluster

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"aeon/internal/transport"
)

// TestClusterServerMapRaceStress hammers the lock-free membership reads
// (Server, Servers, Size) while elasticity actions add and remove servers.
// Run with -race. Every Servers() call must observe one internally
// consistent membership view: non-nil entries, strictly increasing IDs, and
// Server() agreeing with the listing for IDs taken from it.
func TestClusterServerMapRaceStress(t *testing.T) {
	c := New(transport.NullNetwork{})
	// A stable floor of servers that are never removed, so readers always
	// have live IDs to resolve.
	var floor []ServerID
	for i := 0; i < 4; i++ {
		floor = append(floor, c.AddServer(M3Large).ID())
	}

	var churn struct {
		sync.Mutex
		ids []ServerID
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		stop.Store(true)
		t.Errorf(format, args...)
	}

	// Mutator: scale out / scale in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			churn.Lock()
			if len(churn.ids) < 8 && rng.Intn(2) == 0 {
				churn.ids = append(churn.ids, c.AddServer(M1Medium).ID())
				churn.Unlock()
				continue
			}
			if n := len(churn.ids); n > 0 {
				i := rng.Intn(n)
				id := churn.ids[i]
				churn.ids[i] = churn.ids[n-1]
				churn.ids = churn.ids[:n-1]
				churn.Unlock()
				if err := c.RemoveServer(id); err != nil {
					fail("RemoveServer(%v): %v", id, err)
					return
				}
				continue
			}
			churn.Unlock()
		}
	}()

	// Readers run a fixed budget of rounds each; the mutator churns until
	// they are done.
	const rounds = 20000
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds && !stop.Load(); i++ {
				servers := c.Servers()
				if len(servers) < len(floor) {
					fail("Servers() lost the stable floor: %d < %d", len(servers), len(floor))
					return
				}
				for i, s := range servers {
					if s == nil {
						fail("Servers()[%d] is nil", i)
						return
					}
					if i > 0 && servers[i-1].ID() >= s.ID() {
						fail("Servers() not strictly ordered: %v then %v", servers[i-1].ID(), s.ID())
						return
					}
				}
				if size := c.Size(); size < len(floor) {
					fail("Size() = %d below stable floor", size)
					return
				}
				// Floor servers always resolve; churn servers may vanish but
				// must never resolve to a nil or foreign entry.
				id := floor[rng.Intn(len(floor))]
				s, ok := c.Server(id)
				if !ok || s == nil || s.ID() != id {
					fail("Server(%v) = %v, %v", id, s, ok)
					return
				}
				if s.Removed() {
					fail("floor server %v marked removed", id)
					return
				}
				pick := servers[rng.Intn(len(servers))]
				if got, ok := c.Server(pick.ID()); ok && got != pick {
					fail("Server(%v) returned a different *Server than the listing", pick.ID())
					return
				}
			}
		}(int64(10 + r))
	}

	readers.Wait()
	stop.Store(true)
	wg.Wait()
}
