package workload

// The social/chat fan-out scenario: shared subtrees and heavy virtual-join
// traffic, plus deep single-parent chains for migration churn.
//
// Users are grouped into pods of podSize users hosted on one server. Every
// pod member owns every pod timeline, so each timeline has podSize parents
// and every post or timeline read resolves at the pod's minted virtual-join
// dominator. Pods are disjoint share components, which is what makes the
// virtual joins stable and identical across processes: the pod's virtual
// owns all pod users, so it is an ancestor of any pod member and never
// leaks into another dominator query's share set — no cascading mints, and
// every replica derives the same (maxima → placement) mapping even though
// virtual IDs themselves are process-local.
//
// Each user additionally owns a Desk: the root of a deep single-parent
// chain of Draft contexts. Desks are the migration-safe group roots (their
// groups never share members and resolve events at the desk itself), so
// chaos migration churn moves desk chains between servers while posts and
// timeline reads keep hammering the pod virtual joins.

import (
	"fmt"
	"math/rand"

	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// SocialTimeline accumulates delivered posts; exported and wire-registered
// for migration state transfer and checkpoints.
type SocialTimeline struct {
	Posts int
	Chars int
}

// SocialUser holds the precomputed fan-out list: the pod's timelines as raw
// context IDs (gob moves them without custom codecs).
type SocialUser struct {
	Feed []uint64
}

// SocialDesk counts scribbles at the root of a deep draft chain.
type SocialDesk struct {
	Scribbles int
}

// SocialDraft is one link of a desk's chain; its body is dead weight that
// migrations and checkpoints must carry.
type SocialDraft struct {
	Body string
}

func init() {
	schema.RegisterWireType(&SocialTimeline{})
	schema.RegisterWireType(&SocialUser{})
	schema.RegisterWireType(&SocialDesk{})
	schema.RegisterWireType(&SocialDraft{})
	RegisterScenario("social", func(servers int) Scenario { return NewSocial(servers, 0, 0) })
}

// Social is the chat fan-out scenario instance.
type Social struct {
	servers int
	podSize int // users (and timelines) per pod; one pod per server here
	depth   int // drafts chained under each desk

	users     []ownership.ID // flattened, server-major
	timelines []ownership.ID // timelines[u] is users[u]'s timeline
	desks     []ownership.ID // desks[u] is users[u]'s desk-chain root
}

// NewSocial sizes the scenario: podSize users per server forming one pod
// (default 4), each desk chaining depth drafts (default 6).
func NewSocial(servers, podSize, depth int) *Social {
	if podSize <= 0 {
		podSize = 4
	}
	if depth <= 0 {
		depth = 6
	}
	return &Social{servers: servers, podSize: podSize, depth: depth}
}

func (w *Social) Name() string { return "social" }

// pod returns the user indices of u's pod (the users sharing u's server).
func (w *Social) pod(u int) []int {
	base := (u / w.podSize) * w.podSize
	members := make([]int, w.podSize)
	for i := range members {
		members[i] = base + i
	}
	return members
}

// Schema declares User, Timeline, Desk, and Draft. User.post is the
// fan-out write; Timeline reads are the virtual-join-heavy path (every
// timeline has podSize parents); Desk.scribble is the op that rides along
// with migration churn; User.join is the inert churn op.
func (w *Social) Schema() *schema.Schema {
	s := schema.New()
	tl := s.MustDeclareClass("Timeline", func() any { return &SocialTimeline{} })
	tl.MustDeclareMethod("push", func(call schema.Call, args []any) (any, error) {
		st := call.State().(*SocialTimeline)
		st.Posts++
		st.Chars += len(args[0].(string))
		return st.Posts, nil
	})
	tl.MustDeclareMethod("count", func(call schema.Call, args []any) (any, error) {
		return call.State().(*SocialTimeline).Posts, nil
	}, schema.RO())
	tl.MustDeclareMethod("read", func(call schema.Call, args []any) (any, error) {
		st := call.State().(*SocialTimeline)
		return fmt.Sprintf("%d/%d", st.Posts, st.Chars), nil
	}, schema.RO())

	user := s.MustDeclareClass("User", func() any { return &SocialUser{} })
	user.MustDeclareMethod("post", func(call schema.Call, args []any) (any, error) {
		// The message goes down in the box it arrived in: unboxing it here
		// would re-box it, and a fresh args slice, once per timeline.
		st := call.State().(*SocialUser)
		for _, tid := range st.Feed {
			if _, err := call.Sync(ownership.ID(tid), "push", args...); err != nil {
				return nil, err
			}
		}
		return len(st.Feed), nil
	}, schema.MayCall("Timeline", "push"))
	user.MustDeclareMethod("join", func(call schema.Call, args []any) (any, error) {
		return call.NewContext("Timeline", call.Self())
	})

	desk := s.MustDeclareClass("Desk", func() any { return &SocialDesk{} })
	desk.MustDeclareMethod("scribble", func(call schema.Call, args []any) (any, error) {
		st := call.State().(*SocialDesk)
		st.Scribbles++
		return st.Scribbles, nil
	})
	desk.MustDeclareMethod("count", func(call schema.Call, args []any) (any, error) {
		return call.State().(*SocialDesk).Scribbles, nil
	}, schema.RO())

	s.MustDeclareClass("Draft", func() any { return &SocialDraft{} })
	return s
}

// Build creates users, timelines, and desk chains server-major, then wires
// the pods: every pod member gains an ownership edge to every other pod
// timeline, and a Feed listing the whole pod. Order is fixed, so every
// replica derives identical IDs and edges.
func (w *Social) Build(rt *core.Runtime) error {
	w.users = w.users[:0]
	w.timelines = w.timelines[:0]
	w.desks = w.desks[:0]
	servers := rt.Cluster().Servers()
	for _, srv := range servers {
		for i := 0; i < w.podSize; i++ {
			u, err := rt.CreateContextOn(srv.ID(), "User")
			if err != nil {
				return fmt.Errorf("social user %d on %v: %w", i, srv.ID(), err)
			}
			t, err := rt.CreateContextOn(srv.ID(), "Timeline", u)
			if err != nil {
				return fmt.Errorf("social timeline %d on %v: %w", i, srv.ID(), err)
			}
			d, err := rt.CreateContextOn(srv.ID(), "Desk")
			if err != nil {
				return fmt.Errorf("social desk %d on %v: %w", i, srv.ID(), err)
			}
			parent := d
			for k := 0; k < w.depth; k++ {
				c, err := rt.CreateContextOn(srv.ID(), "Draft", parent)
				if err != nil {
					return fmt.Errorf("social draft %d/%d on %v: %w", i, k, srv.ID(), err)
				}
				cc, err := rt.Context(c)
				if err != nil {
					return err
				}
				cc.SetState(&SocialDraft{Body: fmt.Sprintf("draft-%d-%d", i, k)})
				parent = c
			}
			w.users = append(w.users, u)
			w.timelines = append(w.timelines, t)
			w.desks = append(w.desks, d)
		}
	}
	for u := range w.users {
		var feed []uint64
		for _, m := range w.pod(u) {
			if m != u {
				if err := rt.AddOwnerEdge(w.users[u], w.timelines[m]); err != nil {
					return fmt.Errorf("social edge %d->%d: %w", u, m, err)
				}
			}
			feed = append(feed, uint64(w.timelines[m]))
		}
		c, err := rt.Context(w.users[u])
		if err != nil {
			return err
		}
		c.SetState(&SocialUser{Feed: feed})
	}
	return nil
}

// Script posts once from every user (each fanning out to the whole pod),
// scribbles once on every desk, then reads every timeline back — the reads
// crossing the multi-parent virtual-join path.
func (w *Social) Script(submit Submit) []string {
	var out []string
	rec := recorder(&out)
	for u, user := range w.users {
		rec(submit(user, "post", fmt.Sprintf("hello-%d", u)))
	}
	for _, d := range w.desks {
		rec(submit(d, "scribble"))
	}
	for _, t := range w.timelines {
		rec(submit(t, "read"))
	}
	return out
}

// Roots are the desks: single-parent chains whose groups never share
// members, so migration churn can move them freely. Pods are deliberately
// not migration roots — their timelines sequence at a virtual join that a
// group move would leave behind.
func (w *Social) Roots() []ownership.ID { return w.desks }

// Entities: timelines first (index = user index), then desks.
func (w *Social) Entities() int { return len(w.timelines) + len(w.desks) }

func (w *Social) EntityServer(e int) cluster.ServerID {
	if e >= len(w.timelines) {
		e -= len(w.timelines)
	}
	return cluster.ServerID(e/w.podSize + 1)
}

func (w *Social) RootServer(root int) cluster.ServerID {
	return cluster.ServerID(root/w.podSize + 1)
}

// RootEntity maps desk root r to its desk entity.
func (w *Social) RootEntity(root int) int { return len(w.timelines) + root }

// SoakOp posts (3 in 5) — one post lands Delta 1 on every timeline in the
// author's pod — scribbles a desk (1 in 5), or reads a random timeline
// through its virtual dominator (1 in 5).
func (w *Social) SoakOp(rng *rand.Rand) SoakOp {
	switch rng.Intn(5) {
	case 0:
		return SoakOp{Target: w.timelines[rng.Intn(len(w.timelines))], Method: "count"}
	case 1:
		d := rng.Intn(len(w.desks))
		return SoakOp{Target: w.desks[d], Method: "scribble",
			Effects: []Effect{{Entity: len(w.timelines) + d, Delta: 1}}}
	default:
		u := rng.Intn(len(w.users))
		effects := make([]Effect, 0, w.podSize)
		for _, m := range w.pod(u) {
			effects = append(effects, Effect{Entity: m, Delta: 1})
		}
		msg := fmt.Sprintf("m%d", rng.Intn(1000))
		return SoakOp{Target: w.users[u], Method: "post", Args: []any{msg}, Effects: effects}
	}
}

// ReadEntity reads a timeline's delivered-post count or a desk's scribble
// count — the monotone counters the chaos harness model-checks.
func (w *Social) ReadEntity(submit Submit, e int) (uint64, error) {
	target := ownership.ID(0)
	if e < len(w.timelines) {
		target = w.timelines[e]
	} else {
		target = w.desks[e-len(w.timelines)]
	}
	v, err := submit(target, "count")
	if err != nil {
		return 0, err
	}
	return uint64(v.(int)), nil
}

// ChurnOp creates a fresh timeline under the first user: replicated
// structural churn that no feed references and no read observes.
func (w *Social) ChurnOp() (ownership.ID, string, []any) {
	return w.users[0], "join", nil
}
