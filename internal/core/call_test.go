package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// TestAccessDeniedBySchema: calls outside the declared MayAccess set fail
// even when ownership would allow them.
func TestAccessDeniedBySchema(t *testing.T) {
	s := schema.New()
	parent := s.MustDeclareClass("Parent", nil)
	s.MustDeclareClass("Child", func() any { return &itemState{} }).
		MustDeclareMethod("add", func(call schema.Call, args []schema.Value) (schema.Value, error) {
			return schema.Value{}, nil
		})
	// sneaky declares no access to Child.
	parent.MustDeclareMethod("sneaky", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return call.Sync(args[0].ID(), "add")
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := New(s, ownership.NewGraph(), cl, Config{})
	defer rt.Close()
	p, _ := rt.CreateContext("Parent")
	c, _ := rt.CreateContext("Child", p)
	_, err := rt.Submit(p, "sneaky", c)
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("err = %v; want ErrAccessDenied", err)
	}
}

// TestROEventRejectsMutatingCall: a readonly event must not execute a
// mutating method even via a (misdeclared) runtime path.
func TestROEventRejectsMutatingCall(t *testing.T) {
	s := schema.New()
	cls := s.MustDeclareClass("C", func() any { return &itemState{} })
	cls.MustDeclareMethod("mutate", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		call.State().(*itemState).Gold++
		return schema.Value{}, nil
	})
	// Schema-level RO check is bypassed by calling a *self* method (the
	// reflexive exception): the runtime must still refuse.
	cls.MustDeclareMethod("readSneaky", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return call.Sync(args[0].ID(), "mutate")
	}, schema.RO())
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := New(s, ownership.NewGraph(), cl, Config{})
	defer rt.Close()
	a, _ := rt.CreateContext("C")
	child, _ := rt.CreateContext("C", a)
	_, err := rt.Submit(a, "readSneaky", child)
	if !errors.Is(err, ErrReadOnlyEvent) {
		t.Fatalf("err = %v; want ErrReadOnlyEvent", err)
	}
}

// TestCrabThenCallFails: after crabbing, further calls through the crabbed
// context are rejected.
func TestCrabThenCallFails(t *testing.T) {
	s := schema.New()
	parent := s.MustDeclareClass("Parent", nil)
	s.MustDeclareClass("Child", func() any { return &itemState{} }).
		MustDeclareMethod("noop", func(call schema.Call, args []schema.Value) (schema.Value, error) {
			return schema.Value{}, nil
		})
	parent.MustDeclareMethod("doubleCrab", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		c1 := args[0].ID()
		c2 := args[1].ID()
		if err := call.Crab(c1, "noop"); err != nil {
			return schema.Value{}, err
		}
		// Second call through the crabbed parent must fail.
		err := call.Crab(c2, "noop")
		if !errors.Is(err, ErrCrabbed) {
			return schema.Value{}, errors.New("second crab should have failed")
		}
		if _, err := call.Sync(c2, "noop"); !errors.Is(err, ErrCrabbed) {
			return schema.Value{}, errors.New("sync after crab should have failed")
		}
		return schema.Of("ok"), nil
	}, schema.MayCall("Child", "noop"))
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := New(s, ownership.NewGraph(), cl, Config{})
	defer rt.Close()
	p, _ := rt.CreateContext("Parent")
	c1, _ := rt.CreateContext("Child", p)
	c2, _ := rt.CreateContext("Child", p)
	res, err := rt.Submit(p, "doubleCrab", c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if res != "ok" {
		t.Fatalf("res = %v", res)
	}
}

// TestCrabPreservesOrdering: two events crabbing through the same parent
// into the same child must execute at the child in parent order. The first
// append parks on a gate until every later event has crabbed through the
// parent and queued at the child, so the child sees all of them waiting at
// once — the only situation in which its order can differ from the parent's.
func TestCrabPreservesOrdering(t *testing.T) {
	const n = 24
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	var first atomic.Bool
	s := schema.New()
	parent := s.MustDeclareClass("Parent", func() any { return &itemState{} })
	s.MustDeclareClass("Child", func() any { return &itemState{} }).
		MustDeclareMethod("append", func(call schema.Call, args []schema.Value) (schema.Value, error) {
			if first.CompareAndSwap(false, true) {
				<-gate
			}
			call.State().(*itemState).record(uint64(args[0].Int()))
			return schema.Value{}, nil
		})
	parent.MustDeclareMethod("via", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*itemState)
		st.Gold++ // order stamp taken under the parent's lock
		return schema.Int(st.Gold), call.Crab(args[0].ID(), "append", args[1])
	}, schema.MayCall("Child", "append"))
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, _ := New(s, ownership.NewGraph(), cl, Config{})
	defer rt.Close()
	p, _ := rt.CreateContext("Parent")
	c, _ := rt.CreateContext("Child", p)
	cc, _ := rt.Context(c)
	defer open()

	results := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := rt.Submit(p, "via", c, i)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.(int)
		}(i)
	}
	waitFor(t, "every later event to queue at the child", func() bool { return cc.lock.queueLen() == n-1 })
	open()
	wg.Wait()
	// The child's append log must follow the parent's stamp order: event
	// with stamp k wrote position k-1.
	log := cc.State().(*itemState).accessLog()
	if len(log) != n {
		t.Fatalf("log len = %d; want %d", len(log), n)
	}
	prev := 0
	for _, arg := range log {
		stamp := results[int(arg)]
		if stamp <= prev {
			t.Fatalf("child order violates parent order: stamp %d after %d", stamp, prev)
		}
		prev = stamp
	}
}

// TestConservationOnRandomDAGs is a property test: random ownership DAGs,
// random crossing transfers between shared leaves — total gold is conserved
// and nothing deadlocks (watchdog timeout would fail the events).
func TestConservationOnRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := gameTestSchemaForQuick()
		cl := cluster.New(transport.NullNetwork{})
		cl.AddServer(cluster.M3Large)
		cl.AddServer(cluster.M3Large)
		rt, err := New(s, ownership.NewGraph(), cl, Config{AcquireTimeout: 20 * time.Second})
		if err != nil {
			return false
		}
		defer rt.Close()

		// Random shape: R rooms, each with P players; each room has I items
		// randomly owned by 1..3 of {room, players...}.
		room := make([]ownership.ID, 1+rng.Intn(3))
		var players []ownership.ID
		var items []ownership.ID
		itemOwners := make(map[ownership.ID][]ownership.ID)
		for r := range room {
			room[r], _ = rt.CreateContext("Room")
			var roomPlayers []ownership.ID
			for p := 0; p < 2+rng.Intn(2); p++ {
				pl, _ := rt.CreateContext("Player", room[r])
				roomPlayers = append(roomPlayers, pl)
				players = append(players, pl)
			}
			for i := 0; i < 2+rng.Intn(3); i++ {
				candidates := append([]ownership.ID{room[r]}, roomPlayers...)
				rng.Shuffle(len(candidates), func(a, b int) {
					candidates[a], candidates[b] = candidates[b], candidates[a]
				})
				owners := candidates[:1+rng.Intn(len(candidates))]
				it, err := rt.CreateContext("Item", owners...)
				if err != nil {
					return false
				}
				if _, err := rt.Submit(it, "add", 100); err != nil {
					return false
				}
				items = append(items, it)
				itemOwners[it] = owners
			}
		}

		// Crossing transfers: each worker picks an owner that owns ≥2 items
		// and moves gold between them in random order.
		var wg sync.WaitGroup
		fail := make(chan struct{}, 64)
		byOwner := make(map[ownership.ID][]ownership.ID)
		for it, owners := range itemOwners {
			for _, o := range owners {
				byOwner[o] = append(byOwner[o], it)
			}
		}
		var eligible []ownership.ID
		for o, its := range byOwner {
			isRoom := false
			for _, r := range room {
				if o == r {
					isRoom = true
				}
			}
			if !isRoom && len(its) >= 2 {
				eligible = append(eligible, o)
			}
		}
		if len(eligible) == 0 {
			return true // degenerate shape; nothing to test
		}
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 10; i++ {
					o := eligible[rng.Intn(len(eligible))]
					its := byOwner[o]
					a, b := its[rng.Intn(len(its))], its[rng.Intn(len(its))]
					if a == b {
						continue
					}
					if _, err := rt.Submit(o, "transfer", a, b, 1); err != nil {
						fail <- struct{}{}
						return
					}
				}
			}(seed + int64(w))
		}
		wg.Wait()
		select {
		case <-fail:
			return false
		default:
		}
		total := 0
		for _, it := range items {
			c, err := rt.Context(it)
			if err != nil {
				return false
			}
			total += c.State().(*itemState).Gold
		}
		return total == 100*len(items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// gameTestSchemaForQuick builds the transfer schema without a *testing.T.
func gameTestSchemaForQuick() *schema.Schema {
	s := schema.New()
	s.MustDeclareClass("Room", func() any { return &itemState{} })
	player := s.MustDeclareClass("Player", func() any { return &itemState{} })
	item := s.MustDeclareClass("Item", func() any { return &itemState{} })
	item.MustDeclareMethod("add", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st, _ := call.State().(*itemState)
		st.Gold += args[0].Int()
		return schema.Int(st.Gold), nil
	})
	player.MustDeclareMethod("transfer", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		if _, err := call.Sync(args[0].ID(), "add", schema.Int(-args[2].Int())); err != nil {
			return schema.Value{}, err
		}
		return call.Sync(args[1].ID(), "add", schema.Int(args[2].Int()))
	}, schema.MayCall("Item", "add"))
	if err := s.Freeze(); err != nil {
		panic(err)
	}
	return s
}
