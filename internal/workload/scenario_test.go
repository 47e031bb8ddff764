package workload

// The scenario contract is what the chaos harness model-checks against, so
// it is pinned directly: oracle transcripts are deterministic and
// error-free, and the SoakOp effect model agrees exactly with the
// authoritative counters after any op sequence.

import (
	"math/rand"
	"testing"

	"aeon/internal/alloctest"
)

func TestScenarioOracleDeterministicAndClean(t *testing.T) {
	for _, name := range []string{"iot", "social"} {
		a, err := Oracle(name, 3)
		if err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		b, err := Oracle(name, 3)
		if err != nil {
			t.Fatalf("%s oracle (2nd): %v", name, err)
		}
		if len(a) == 0 {
			t.Fatalf("%s oracle transcript empty", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s oracle diverges at %d: %q vs %q", name, i, a[i], b[i])
			}
			if len(a[i]) >= 4 && a[i][:4] == "err:" {
				t.Fatalf("%s oracle op %d failed: %s", name, i, a[i])
			}
		}
	}
}

func TestSoakOpEffectModelMatchesAuthoritativeCounters(t *testing.T) {
	for _, name := range []string{"iot", "social"} {
		scen, err := NewScenario(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewScenarioRuntime(scen, 3)
		if err != nil {
			t.Fatalf("%s runtime: %v", name, err)
		}
		// Baseline after the deterministic script, then random traffic on
		// top — the chaos harness does exactly this (script, baseline,
		// soak), so the model must hold from a dirty starting state too.
		scen.Script(rt.Submit)
		base := make([]uint64, scen.Entities())
		for e := range base {
			v, err := scen.ReadEntity(rt.Submit, e)
			if err != nil {
				t.Fatalf("%s baseline entity %d: %v", name, e, err)
			}
			base[e] = v
		}
		want := make([]uint64, scen.Entities())
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 400; i++ {
			op := scen.SoakOp(rng)
			if _, err := rt.Submit(op.Target, op.Method, op.Args...); err != nil {
				t.Fatalf("%s soak op %d (%s): %v", name, i, op.Method, err)
			}
			for _, ef := range op.Effects {
				want[ef.Entity] += ef.Delta
			}
		}
		// A churn op must not perturb any counter.
		target, method, args := scen.ChurnOp()
		if _, err := rt.Submit(target, method, args...); err != nil {
			t.Fatalf("%s churn op: %v", name, err)
		}
		for e := range want {
			got, err := scen.ReadEntity(rt.Submit, e)
			if err != nil {
				t.Fatalf("%s read entity %d: %v", name, e, err)
			}
			if got != base[e]+want[e] {
				t.Fatalf("%s entity %d = %d, want %d (base %d + %d modeled)",
					name, e, got, base[e]+want[e], base[e], want[e])
			}
		}
		rt.Close()
	}
}

func TestScenarioTopologyShape(t *testing.T) {
	scen, err := NewScenario("social", 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewScenarioRuntime(scen, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	s := scen.(*Social)
	// Every timeline has podSize parents: every member of its pod — the
	// shared-subtree shape that makes posts and timeline reads resolve at
	// the pod's virtual dominator.
	view := rt.Graph().Snapshot()
	for i, tl := range s.timelines {
		owners, err := view.Parents(tl)
		if err != nil {
			t.Fatalf("timeline %d parents: %v", i, err)
		}
		if len(owners) != s.podSize {
			t.Fatalf("timeline %d has %d owners, want %d", i, len(owners), s.podSize)
		}
	}
	// Every desk chains depth drafts: desk → draft → ... → draft.
	cur := s.desks[0]
	for k := 0; k < s.depth; k++ {
		kids, err := view.Children(cur)
		if err != nil || len(kids) != 1 {
			t.Fatalf("desk chain link %d: children %v err %v", k, kids, err)
		}
		cur = kids[0]
	}
	if got := scen.Entities(); got != 2*2*s.podSize {
		t.Fatalf("entities = %d, want %d", got, 2*2*s.podSize)
	}
}

// TestSocialPostAllocatesOnlyCalleeResults: a warmed post over a pod of 8
// allocates at most one object per sub-call — push's boxed post count, once
// the timelines are past the runtime's preboxed small ints — and nothing for
// carrying the message down.
func TestSocialPostAllocatesOnlyCalleeResults(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped event is rebuilt from scratch")
	}
	const pod = 8
	scen := NewSocial(1, pod, 1)
	rt, err := NewScenarioRuntime(scen, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	args := []any{"hello"}
	post := func() {
		if n, err := rt.Submit(scen.users[0], "post", args...); err != nil || n != pod {
			t.Fatalf("post = %v, %v", n, err)
		}
	}
	for i := 0; i < 300; i++ {
		post() // warm, and push every timeline past 255 posts
	}
	if n := testing.AllocsPerRun(200, post); n > pod {
		t.Fatalf("%v allocations per post over a pod of %d; want at most one per sub-call", n, pod)
	}
}
