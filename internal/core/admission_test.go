package core

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"aeon/internal/alloctest"
	"aeon/internal/ownership"
	"aeon/internal/transport"
)

// TestAdmissionFollowsOwnershipChanges: a target's admission is memoized, and
// the next event after an ownership change must be admitted by the new
// network, not by the memo. Both cases fail if admission trusts a memo
// without comparing its graph version to the current one.
func TestAdmissionFollowsOwnershipChanges(t *testing.T) {
	t.Run("dominator moves to a join", func(t *testing.T) {
		w := newFanWorld(t, 1, 2, transport.NullNetwork{}, 1)
		x := w.hubs[0]
		w.submit(t, x, "fan") // warm: x is its own dominator
		other, err := w.rt.CreateContext("Hub")
		if err != nil {
			t.Fatal(err)
		}
		// A second owner of x's leaf makes x's subtree shared: x's events
		// are now sequenced at the virtual join of x and other.
		if err := w.rt.AddOwnerEdge(other, w.leaves[0]); err != nil {
			t.Fatal(err)
		}
		dom, _, err := w.rt.Graph().Resolve(x)
		if err != nil {
			t.Fatal(err)
		}
		if !dom.IsVirtual() {
			t.Fatalf("dominator of %v sharing a leaf = %v; want a virtual join", x, dom)
		}
		release, err := w.rt.LockForMigration(dom)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := w.rt.Submit(x, "fan")
			done <- err
		}()
		domCtx, err := w.rt.Context(dom)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the event to queue behind its new dominator", func() bool {
			select {
			case err := <-done:
				t.Fatalf("event on %v finished (err %v) while its dominator %v was held", x, err, dom)
			default:
			}
			return domCtx.lock.queueLen() == 1
		})
		release()
		if err := <-done; err != nil {
			t.Fatalf("event after its dominator was released: %v", err)
		}
	})

	t.Run("context on the old path detached", func(t *testing.T) {
		// x sits two levels under a and shares its leaf with c, a's other
		// child, so x's events are sequenced at a and escorted through m.
		w := newFanWorld(t, 0, 0, transport.NullNetwork{}, 1)
		create := func(class string, owners ...ownership.ID) ownership.ID {
			id, err := w.rt.CreateContext(class, owners...)
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		a := create("Hub")
		m, c := create("Hub", a), create("Hub", a)
		x := create("Hub", m)
		w.aim(t, x, create("Leaf", x, c))
		w.submit(t, x, "fan") // warm
		dom, view, err := w.rt.Graph().Resolve(x)
		if err != nil {
			t.Fatal(err)
		}
		if path, err := view.Path(dom, x); err != nil || !slices.Equal(path, []ownership.ID{a, m, x}) {
			t.Fatalf("activation path of %v = %v (%v); want [%v %v %v]", x, path, err, a, m, x)
		}
		if err := w.rt.DestroyContext(m); err != nil {
			t.Fatal(err)
		}
		// x is a root now and m is gone: the event must not be escorted
		// through it.
		if _, err := w.rt.Submit(x, "fan"); err != nil {
			t.Fatalf("event on %v after %v on its old path was detached: %v", x, m, err)
		}
	})
}

// TestAdmissionRevalidatesWithoutAllocating: a graph change that leaves a
// target's dominator and path alone — here an unrelated leaf's creation —
// costs its next event a Resolve and an in-place version store, not a new
// memo. Rebuilding on every version change reads 2 (the memo and its path).
func TestAdmissionRevalidatesWithoutAllocating(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped event is rebuilt from scratch")
	}
	w := newFanWorld(t, 2, 8, transport.NullNetwork{}, 1)
	other, err := w.rt.CreateContext("Hub")
	if err != nil {
		t.Fatal(err)
	}
	args := []any{"msg"}
	submit := func() {
		if _, err := w.rt.Submit(w.hubs[1], "fan", args...); err != nil {
			t.Fatal(err)
		}
	}
	// As in testing.AllocsPerRun, one P keeps the event pool's private slot
	// in reach of the next event; and no collection, which the graph writes
	// below would trigger, empties it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 300; i++ {
		submit() // warm: event pool, child tables, admission
	}
	const runs = 100
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		v := w.rt.Graph().Version()
		if _, err := w.rt.CreateContext("Leaf", other); err != nil {
			t.Fatal(err)
		}
		if w.rt.Graph().Version() == v {
			t.Fatal("creating a leaf did not bump the graph version")
		}
		runtime.ReadMemStats(&before)
		submit()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if n := float64(mallocs) / runs; n != 0 {
		t.Fatalf("%v allocations per event after an unrelated graph change; want 0", n)
	}
}
