package node

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"aeon/internal/alloctest"
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// handleBatch delivers one batch frame to a node the way the mesh would and
// decodes the response.
func handleBatch(t testing.TB, n *Node, req *schema.SubmitBatchReq) []schema.BatchOutcome {
	t.Helper()
	payload, err := req.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := n.handle(context.Background(), 99, transport.Message{Kind: schema.KindSubmitBatch, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	var resp schema.SubmitBatchResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		t.Fatal(err)
	}
	if len(resp.Outcomes) != len(req.Events) {
		t.Fatalf("%d outcomes for %d events", len(resp.Outcomes), len(req.Events))
	}
	return resp.Outcomes
}

// TestBatchFrameAllocBudget is the node's allocation gate for the submit
// frame path: handling a warm frame allocates a constant number of objects
// per frame, whatever its event count (96, or one), and nothing per event.
//
// The frame releases its response, as the transport does once the response
// is sent, so the response buffer comes from the frame-buffer pool and is
// not counted (it was one object per frame before the pool served it).
//
// bank is the benchmark's bank op mix: the frame's one args slice. Results
// travel as schema.Values from the handler through the response encoder, so
// a balance of 256 or more is not boxed; decode target, outcome and result
// slots and forward lists come from the pooled scratch.
//
// one is a lone bank deposit, the frame every Client.Submit and every
// forwarded Runtime.Submit sends: the same one object, its args arena.
//
// social is a frame of posts, each carrying its message as a string argument
// down to a pod of timelines: the args arena plus the one copy of the frame
// its string arguments are slices of. (Before arguments were Values, each
// string argument was copied out of the frame and boxed into an `any`: two
// objects per event.)
func TestBatchFrameAllocBudget(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped scratch is rebuilt from scratch")
	}
	const events = 96
	for _, tc := range []struct {
		name        string
		frameAllocs float64
		frame       func(t *testing.T) (*Node, schema.SubmitBatchReq)
	}{
		{"one", 1, func(t *testing.T) (*Node, schema.SubmitBatchReq) {
			d := deploy(t, 1)
			return d.Nodes[0], schema.SubmitBatchReq{Events: []schema.BatchEvent{{Target: d.Top.Accounts[0][0], Method: "deposit", Args: []any{1}}}}
		}},
		{"bank", 1, func(t *testing.T) (*Node, schema.SubmitBatchReq) {
			d := deploy(t, 1)
			req := schema.SubmitBatchReq{Events: make([]schema.BatchEvent, events)}
			for i := range req.Events {
				ev := &req.Events[i]
				ev.Target = d.Top.Accounts[0][i%len(d.Top.Accounts[0])]
				if ev.Method = "deposit"; i%10 == 9 {
					ev.Method = "balance"
				} else {
					ev.Args = []any{1} // small ints do not box on decode
				}
			}
			return d.Nodes[0], req
		}},
		{"social", 2, func(t *testing.T) (*Node, schema.SubmitBatchReq) {
			scen, err := workload.NewScenario("social", 1)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Deploy(transport.NewInMemMesh(transport.NewSim(transport.SimConfig{})), Topology{Nodes: 1, Scenario: scen})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			var req schema.SubmitBatchReq
			for rng := rand.New(rand.NewSource(1)); len(req.Events) < events; {
				if op := scen.SoakOp(rng); op.Method == "post" {
					req.Events = append(req.Events, schema.BatchEvent{Target: op.Target, Method: op.Method, Args: op.Args})
				}
			}
			return d.Nodes[0], req
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, req := tc.frame(t)
			payload, err := req.MarshalWire(nil)
			if err != nil {
				t.Fatal(err)
			}
			msg := transport.Message{Kind: schema.KindSubmitBatch, Payload: payload}
			frame := func() {
				resp, err := n.handle(context.Background(), 99, msg)
				if err != nil {
					t.Fatal(err)
				}
				resp.Release()
			}
			for i := 0; i < 8; i++ {
				frame() // warm: scratch pool, event pool, intern table
			}
			// The results the frame returns (balances, post counts) are ≥ 256
			// by now, so a boxed result would show as one object per event.
			got := testing.AllocsPerRun(200, frame)
			t.Logf("a warm %d-event %s frame allocates %v objects", len(req.Events), tc.name, got)
			if got > tc.frameAllocs {
				t.Fatalf("a warm %d-event %s frame allocated %v objects; budget is %v per frame and none per event", len(req.Events), tc.name, got, tc.frameAllocs)
			}
		})
	}
}

// catchUpCounter is a core.Replicator whose log is always caught up.
type catchUpCounter struct {
	core.Replicator
	n int
}

func (c *catchUpCounter) CatchUp() error { c.n++; return nil }

// TestForwardAllocBudget is the node's allocation gate for the runtime's
// forwarding hook: a warm Node.Submit whose event another node hosts goes out
// as a frame of one from pooled scratch, on the submitting goroutine, and
// allocates what the peer's frame does (its args arena) plus the box Submit
// returns its result in — nothing for the hop itself. The peer's response
// buffer is pooled: forwardHost releases it once it has decoded it (3 before
// the pool served it).
func TestForwardAllocBudget(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped scratch is rebuilt from scratch")
	}
	const budget = 2
	d := deploy(t, 2)
	n1 := d.Nodes[0]
	acct := d.Top.Accounts[1][0] // hosted on node 2
	submit := func() {
		if _, err := n1.Submit(acct, "deposit", 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		submit() // warm: scratch pools, frame buffers; the balance passes 256
	}
	fwd := n1.Forwarded()
	got := testing.AllocsPerRun(2000, submit)
	if n1.Forwarded() == fwd {
		t.Fatal("the submits were not forwarded")
	}
	t.Logf("a warm forwarded Node.Submit allocates %v objects", got)
	if got > budget {
		t.Fatalf("a warm forwarded Node.Submit allocated %v objects; budget is %d", got, budget)
	}
}

// TestBatchFrameInterleavedOutcomes drives one frame that interleaves local,
// non-local and unknown-target events through a node whose hop budget has
// one forward left. Every outcome must land in its own slot in request
// order; each local event runs exactly once; the non-local ones leave as
// one sub-frame per host carrying Hops+1 — proven by a peer with a stale
// directory, which must refuse to forward its event again instead of
// succeeding; unknown targets fail typed and cost the frame one log pull.
func TestBatchFrameInterleavedOutcomes(t *testing.T) {
	d := deploy(t, 3)
	n1, n2, n3 := d.Nodes[0], d.Nodes[1], d.Nodes[2]
	local, on2, on3 := d.Top.Accounts[0], d.Top.Accounts[1], d.Top.Accounts[2]
	// Node 2 wrongly believes one of its own accounts moved to server 3.
	stale := on2[3]
	if err := n2.Runtime().Directory().Move(stale, 3); err != nil {
		t.Fatal(err)
	}
	pulls := &catchUpCounter{}
	n1.Runtime().SetReplicator(pulls)

	type want struct {
		result int
		code   schema.Code
		host   int64
	}
	req := schema.SubmitBatchReq{Hops: maxHops - 1}
	var wants []want
	add := func(target ownership.ID, method string, w want, args ...any) {
		req.Events = append(req.Events, schema.BatchEvent{Target: target, Method: method, Args: args})
		wants = append(wants, w)
	}
	for round := 1; round <= 4; round++ {
		add(local[0], "deposit", want{result: 1000 + round, host: 1}, 1)
		add(on2[0], "deposit", want{result: 1000 + 10*round, host: 2}, 10)
		add(ownership.ID(90000+round), "deposit", want{code: schema.CodeUnknownContext}, 1)
		add(on3[1], "deposit", want{result: 1000 + 100*round, host: 3}, 100)
		add(local[1], "balance", want{result: 1000, host: 1})
		add(stale, "deposit", want{code: schema.CodeTooManyHops, host: 3}, 5)
	}
	fwd1, b2, b3, e2, e3 := n1.Forwarded(), n2.batches.Load(), n3.batches.Load(), n2.executed.Load(), n3.executed.Load()
	outs := handleBatch(t, n1, &req)
	for i, w := range wants {
		o := outs[i]
		if o.Code != w.code || o.Host != w.host {
			t.Fatalf("slot %d (%+v): code %s host %d (%s); want code %s host %d", i, req.Events[i], o.Code.Name(), o.Host, o.Err, w.code.Name(), w.host)
		}
		if w.code == schema.CodeOK && o.Result != w.result {
			t.Fatalf("slot %d (%+v): result %v; want %d — outcomes out of order or an event ran twice", i, req.Events[i], o.Result, w.result)
		}
	}
	if !errors.Is(schema.Err(outs[2].Code, outs[2].Err), core.ErrUnknownContext) ||
		!errors.Is(schema.Err(outs[5].Code, outs[5].Err), ErrTooManyHops) {
		t.Fatalf("typed failures did not survive their slots: %q / %q", outs[2].Err, outs[5].Err)
	}
	if pulls.n != 1 {
		t.Fatalf("four unknown targets in one frame pulled the log %d times; want once", pulls.n)
	}
	if got := n1.Forwarded() - fwd1; got != 12 {
		t.Fatalf("node 1 forwarded %d events; want the 12 non-local ones", got)
	}
	if n2.batches.Load()-b2 != 1 || n3.batches.Load()-b3 != 1 {
		t.Fatalf("forwarded in %d + %d sub-frames; want one per host", n2.batches.Load()-b2, n3.batches.Load()-b3)
	}
	if n2.executed.Load()-e2 != 4 || n3.executed.Load()-e3 != 4 || n2.Forwarded() != 0 {
		t.Fatalf("peers executed %d + %d events and node 2 forwarded %d; want 4 + 4 and the stale ones refused (Hops+1 reached the budget)",
			n2.executed.Load()-e2, n3.executed.Load()-e3, n2.Forwarded())
	}
	for _, c := range []struct {
		n    *Node
		acct ownership.ID
		want int
	}{{n1, local[0], 1004}, {n1, local[1], 1000}, {n2, on2[0], 1040}, {n3, on3[1], 1400}, {n2, stale, 1000}} {
		ctx, err := c.n.Runtime().Context(c.acct)
		if err != nil {
			t.Fatal(err)
		}
		if got := ctx.State().(*BankAccount).Balance; got != c.want {
			t.Fatalf("%v on node %v: balance %d; want %d", c.acct, c.n.ID(), got, c.want)
		}
	}
}

// TestFailuresArriveAsThemselves pins what a caller can tell from a failed
// outcome, in a frame of one and in a larger frame alike: a forward hop that
// failed in the transport arrives as that link error with class unknown —
// nothing says whether the peer executed — so does a peer's response that is
// undecodable or carries one outcome too few or too many for the events sent,
// and the runtime's own refusals arrive as their sentinels with the class the
// table gives them.
func TestFailuresArriveAsThemselves(t *testing.T) {
	d, fm, net := deployFaulty(t, 3)
	n1 := d.Nodes[0]
	on2, on3 := d.Top.Accounts[1], d.Top.Accounts[2]
	net.Partition(1, 2)
	// Node 3 is replaced by a peer that answers every submit frame the way
	// the row asks: with garbage, or with one outcome short or one too many.
	const (
		peerGarbage = iota
		peerShort
		peerLong
	)
	var peer atomic.Int32
	_ = d.Nodes[2].Close()
	ep, err := fm.Attach(3, func(_ context.Context, _ transport.NodeID, req transport.Message) (transport.Message, error) {
		var q schema.SubmitBatchReq
		if err := q.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		n := len(q.Events)
		switch peer.Load() {
		case peerGarbage:
			return transport.Message{Kind: req.Kind, Payload: []byte("garbage")}, nil
		case peerShort:
			n--
		case peerLong:
			n++
		}
		resp := schema.SubmitBatchResp{Outcomes: make([]schema.BatchOutcome, n)}
		for i := range resp.Outcomes {
			resp.Outcomes[i] = schema.BatchOutcome{Result: 7, Host: 3}
		}
		payload, err := resp.MarshalWire(nil)
		return transport.Message{Kind: schema.KindSubmitBatch, Payload: payload}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })

	// A runtime whose one class fails with whatever sentinel it is asked for.
	s := schema.New()
	sentinels := []error{core.ErrMigrating, core.ErrAcquireTimeout, errors.New("handler's own")}
	s.MustDeclareClass("Faulty", func() any { return new(int) }).MustDeclareMethod("fail", func(_ schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Value{}, fmt.Errorf("asked for: %w", sentinels[args[0].Int()])
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NewSim(transport.SimConfig{}))
	cl.AddServer(cluster.M3Large)
	rt, err := core.New(s, ownership.NewGraph(), cl, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nf, err := Start(transport.NewInMemMesh(transport.NewSim(transport.SimConfig{})), Config{ID: 1, Runtime: rt, LocalStore: cloudstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nf.Close(); rt.Close() })
	faulty := mustCreate(t, rt, "Faulty")

	for _, tc := range []struct {
		name   string
		via    *Node
		target ownership.ID
		method string
		args   []any
		is     error // nil: any error of the class
		class  schema.RetryClass
		peer   int32 // how node 3's stand-in answers, for the rows forwarded to it
	}{
		{"forward hop partitioned", n1, on2[0], "deposit", []any{1}, transport.ErrPartitioned, schema.OutcomeUnknown, 0},
		{"forward response undecodable", n1, on3[0], "deposit", []any{1}, nil, schema.OutcomeUnknown, peerGarbage},
		{"forward response truncated", n1, on3[0], "deposit", []any{1}, nil, schema.OutcomeUnknown, peerShort},
		{"forward response overlong", n1, on3[0], "deposit", []any{1}, nil, schema.OutcomeUnknown, peerLong},
		{"migrating", nf, faulty, "fail", []any{0}, core.ErrMigrating, schema.NotExecuted, 0},
		{"acquire timeout", nf, faulty, "fail", []any{1}, core.ErrAcquireTimeout, schema.OutcomeUnknown, 0},
		{"handler's own error", nf, faulty, "fail", []any{2}, schema.CodeApp, schema.ExecutedFailed, 0},
		{"unknown context", n1, ownership.ID(90001), "deposit", []any{1}, core.ErrUnknownContext, schema.NotExecuted, 0},
	} {
		peer.Store(tc.peer)
		// A frame of one, and a frame of two whose last slot a response one
		// outcome short would leave empty.
		for _, events := range []int{1, 2} {
			var req schema.SubmitBatchReq
			for range events {
				req.Events = append(req.Events, schema.BatchEvent{Target: tc.target, Method: tc.method, Args: tc.args})
			}
			last := handleBatch(t, tc.via, &req)[events-1]
			back := schema.Err(last.Code, last.Err)
			if back == nil || (tc.is != nil && !errors.Is(back, tc.is)) || schema.CodeOf(back).Class() != tc.class {
				t.Errorf("%s, frame of %d: arrived as code %s (%s): %v; want errors.Is %v with class %s",
					tc.name, events, last.Code.Name(), last.Code.Class(), back, tc.is, tc.class)
			}
		}
	}
}

// keeperState is what the args-retention fixture's handlers keep.
type keeperState struct {
	kept [][]schema.Value
}

// TestBatchArgsSurviveFrameReuse pins that pooling the frame scratch made no
// new no-retain contract: a handler that stores its args slice, and one that
// dispatches `args...` to a sub-event (which runs after the frame is gone),
// read back unchanged values after 100 further frames have been decoded
// through the same node's recycled scratch.
func TestBatchArgsSurviveFrameReuse(t *testing.T) {
	s := schema.New()
	const perFrame, laterFrames = 16, 100
	var kept sync.WaitGroup // one Done per keep, direct or dispatched
	kept.Add(perFrame * (laterFrames + 1))
	keeper := s.MustDeclareClass("Keeper", func() any { return &keeperState{} })
	keeper.MustDeclareMethod("keep", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*keeperState)
		st.kept = append(st.kept, args)
		kept.Done()
		return schema.Int(len(st.kept)), nil
	})
	keeper.MustDeclareMethod("relay", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		call.Dispatch(call.Self(), "keep", args...)
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(transport.NewSim(transport.SimConfig{}))
	cl.AddServer(cluster.M3Large)
	rt, err := core.New(s, ownership.NewGraph(), cl, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	n, err := Start(mesh, Config{ID: 1, Runtime: rt, LocalStore: cloudstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close(); rt.Close() })
	direct, relayed := mustCreate(t, rt, "Keeper"), mustCreate(t, rt, "Keeper")

	frame := func(round int) (req schema.SubmitBatchReq) {
		for i := 0; i < perFrame; i++ {
			target, method := direct, "keep"
			if i%2 == 1 {
				target, method = relayed, "relay"
			}
			req.Events = append(req.Events, schema.BatchEvent{Target: target, Method: method,
				Args: []any{round*1000 + i, "memo", ownership.ID(round)}})
		}
		return req
	}
	for round := 0; round <= laterFrames; round++ {
		req := frame(round)
		for i, o := range handleBatch(t, n, &req) {
			if o.Code != schema.CodeOK {
				t.Fatalf("frame %d event %d: %s", round, i, o.Err)
			}
		}
	}
	kept.Wait()
	for name, id := range map[string]ownership.ID{"stored": direct, "dispatched": relayed} {
		c, err := rt.Context(id)
		if err != nil {
			t.Fatal(err)
		}
		kept := c.State().(*keeperState).kept
		if len(kept) != perFrame/2*(laterFrames+1) {
			t.Fatalf("%s: kept %d arg slices; want %d", name, len(kept), perFrame/2*(laterFrames+1))
		}
		seen := make(map[int]bool)
		for _, args := range kept {
			got := make([]any, len(args))
			for k, v := range args {
				got[k] = v.Any()
			}
			first, _ := got[0].(int)
			round, i := first/1000, first%1000
			if want := []any{round*1000 + i, "memo", ownership.ID(round)}; !reflect.DeepEqual(got, want) || seen[first] {
				t.Fatalf("%s: args %v changed after later frames reused the scratch (or arrived twice); want %v", name, got, want)
			}
			seen[first] = true
		}
	}
}

func mustCreate(t *testing.T, rt *core.Runtime, class string) ownership.ID {
	t.Helper()
	id, err := rt.CreateContext(class)
	if err != nil {
		t.Fatal(err)
	}
	return id
}
