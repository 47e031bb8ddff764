package eventwave

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

type counter struct {
	N int
}

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	root := s.MustDeclareClass("Root", func() any { return &counter{} })
	room := s.MustDeclareClass("Room", func() any { return &counter{} })
	item := s.MustDeclareClass("Item", func() any { return &counter{} })

	item.MustDeclareMethod("add", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*counter)
		st.N += args[0].Int()
		return schema.Int(st.N), nil
	})
	room.MustDeclareMethod("inc", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*counter)
		st.N++
		return schema.Int(st.N), nil
	})
	room.MustDeclareMethod("addAll", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		items, err := call.Children("Item")
		if err != nil {
			return schema.Value{}, err
		}
		var res []schema.AsyncResult
		for _, it := range items {
			res = append(res, call.Async(it, "add", args[0]))
		}
		for _, r := range res {
			if _, err := r.Wait(); err != nil {
				return schema.Value{}, err
			}
		}
		return schema.Value{}, nil
	}, schema.MayCall("Item", "add"))
	room.MustDeclareMethod("transfer", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		from := args[0].ID()
		to := args[1].ID()
		amt := args[2].Int()
		if _, err := call.Sync(from, "add", schema.Int(-amt)); err != nil {
			return schema.Value{}, err
		}
		if _, err := call.Sync(to, "add", schema.Int(amt)); err != nil {
			return schema.Value{}, err
		}
		return schema.Value{}, nil
	}, schema.MayCall("Item", "add"))
	root.MustDeclareMethod("noop", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	return s
}

type world struct {
	rt    *Runtime
	root  ownership.ID
	rooms []ownership.ID
	items map[ownership.ID][]ownership.ID
}

func newWorld(t *testing.T, nServers, nRooms, itemsPerRoom int) *world {
	t.Helper()
	s := testSchema(t)
	cl := cluster.New(transport.NullNetwork{})
	for i := 0; i < nServers; i++ {
		cl.AddServer(cluster.M3Large)
	}
	rt, err := New(s, cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	w := &world{rt: rt, items: make(map[ownership.ID][]ownership.ID)}
	servers := cl.Servers()
	w.root, err = rt.CreateContextOn(servers[0].ID(), "Root")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nRooms; i++ {
		room, err := rt.CreateContextOn(servers[i%len(servers)].ID(), "Room", w.root)
		if err != nil {
			t.Fatal(err)
		}
		w.rooms = append(w.rooms, room)
		for j := 0; j < itemsPerRoom; j++ {
			it, err := rt.CreateContext("Item", room)
			if err != nil {
				t.Fatal(err)
			}
			w.items[room] = append(w.items[room], it)
		}
	}
	return w
}

func TestTreeEnforced(t *testing.T) {
	w := newWorld(t, 1, 1, 1)
	// Second root rejected.
	if _, err := w.rt.CreateContext("Root"); !errors.Is(err, ErrNotTree) {
		t.Fatalf("err = %v; want ErrNotTree", err)
	}
	// Multi-owner rejected.
	if _, err := w.rt.CreateContext("Item", w.rooms[0], w.root); !errors.Is(err, ErrNotTree) {
		t.Fatalf("err = %v; want ErrNotTree", err)
	}
}

func TestSubmitAndState(t *testing.T) {
	w := newWorld(t, 2, 2, 2)
	if _, err := w.rt.Submit(w.rooms[0], "inc"); err != nil {
		t.Fatal(err)
	}
	st, err := w.rt.State(w.rooms[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.(*counter).N != 1 {
		t.Fatalf("N = %d", st.(*counter).N)
	}
}

func TestTransferConservation(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	room := w.rooms[0]
	i1, i2 := w.items[room][0], w.items[room][1]
	if _, err := w.rt.Submit(i1, "add", 1000); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				from, to := i1, i2
				if g%2 == 0 {
					from, to = to, from
				}
				if _, err := w.rt.Submit(room, "transfer", from, to, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s1, _ := w.rt.State(i1)
	s2, _ := w.rt.State(i2)
	if total := s1.(*counter).N + s2.(*counter).N; total != 1000 {
		t.Fatalf("total = %d; want 1000", total)
	}
}

func TestRootSequencingSerializes(t *testing.T) {
	// With a large RootCost, events serialize at the root even when they
	// target disjoint rooms — the EventWave bottleneck.
	s := testSchema(t)
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	cl.AddServer(cluster.M3Large)
	rt, err := New(s, cl, Config{RootCost: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	root, _ := rt.CreateContext("Root")
	r1, _ := rt.CreateContext("Room", root)
	r2, _ := rt.CreateContext("Room", root)

	start := time.Now()
	var wg sync.WaitGroup
	for _, room := range []ownership.ID{r1, r2, r1, r2} {
		wg.Add(1)
		go func(id ownership.ID) {
			defer wg.Done()
			if _, err := rt.Submit(id, "inc"); err != nil {
				t.Error(err)
			}
		}(room)
	}
	wg.Wait()
	// Root work is serialized on the root's server (2 cores, but the root
	// lock is held during the Work), so 4 events ≥ ~80ms.
	if el := time.Since(start); el < 75*time.Millisecond {
		t.Fatalf("4 events took %v; want ≥80ms (root bottleneck)", el)
	}
}

func TestPipelineParallelismBelowRoot(t *testing.T) {
	// With zero root cost, events to different rooms overlap their room
	// work (the pipeline property). One event per room waits inside its
	// handler for the other's, so both complete only if both rooms are
	// inside their handlers at once; a pipeline that serialized them leaves
	// the first waiting until its hang guard fails it.
	both := make(chan struct{})
	var inside atomic.Int32
	s := schema.New()
	s.MustDeclareClass("Root", nil)
	room := s.MustDeclareClass("Room", nil)
	room.MustDeclareMethod("meet", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		if inside.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return schema.Value{}, nil
		case <-time.After(5 * time.Second):
			return schema.Value{}, errors.New("the other room never entered its handler")
		}
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	cl.AddServer(cluster.M3Large)
	rt, _ := New(s, cl, Config{})
	defer rt.Close()
	root, _ := rt.CreateContext("Root")
	r1, _ := rt.CreateContext("Room", root)
	r2, _ := rt.CreateContext("Room", root)

	var wg sync.WaitGroup
	for _, room := range []ownership.ID{r1, r2} {
		wg.Add(1)
		go func(id ownership.ID) {
			defer wg.Done()
			if _, err := rt.Submit(id, "meet"); err != nil {
				t.Error(err)
			}
		}(room)
	}
	wg.Wait()
}

func TestAsyncChildren(t *testing.T) {
	w := newWorld(t, 1, 1, 4)
	if _, err := w.rt.Submit(w.rooms[0], "addAll", 7); err != nil {
		t.Fatal(err)
	}
	for _, it := range w.items[w.rooms[0]] {
		st, _ := w.rt.State(it)
		if st.(*counter).N != 7 {
			t.Fatalf("item = %d; want 7", st.(*counter).N)
		}
	}
}

func TestDirectOwnershipEnforced(t *testing.T) {
	w := newWorld(t, 1, 2, 1)
	other := w.items[w.rooms[1]][0]
	_, err := w.rt.Submit(w.rooms[0], "transfer", other, w.items[w.rooms[0]][0], 1)
	if !errors.Is(err, ErrNotOwned) {
		t.Fatalf("err = %v; want ErrNotOwned", err)
	}
}

func TestSubmitClosed(t *testing.T) {
	w := newWorld(t, 1, 1, 0)
	w.rt.Close()
	if _, err := w.rt.Submit(w.rooms[0], "inc"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v; want ErrClosed", err)
	}
}

func TestUnknownTargets(t *testing.T) {
	w := newWorld(t, 1, 1, 0)
	if _, err := w.rt.Submit(ownership.ID(999), "inc"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v; want ErrUnknown", err)
	}
	if _, err := w.rt.Submit(w.rooms[0], "ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v; want ErrUnknown", err)
	}
}
