package node

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"aeon/internal/alloctest"
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// handleBatch delivers one batch frame to a node the way the mesh would and
// decodes the response.
func handleBatch(t testing.TB, n *Node, req *schema.SubmitBatchReq) []schema.BatchOutcome {
	t.Helper()
	payload, err := req.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := n.handle(context.Background(), 99, transport.Message{Kind: KindSubmitBatch, Payload: payload})
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

// TestBatchFrameAllocBudget is the node's allocation gate for the batch
// frame path: handling a warm 96-event bank frame (the benchmark's op mix)
// allocates one object per event — the handler API returns `any`, and a
// balance of 256 or more boxes — plus frameAllocs objects per frame: the
// frame's one args slice and its response buffer. Decode target, outcome
// slots and forward lists come from the pooled scratch. (At the parent
// commit the same frame made ≈ 2 × events + 8: an Args slice per event, the
// events slice, the outcomes slice and the response buffer's doublings.)
func TestBatchFrameAllocBudget(t *testing.T) {
	if alloctest.PoolIsLossy() {
		t.Skip("sync.Pool drops entries at random under the race detector; every dropped scratch is rebuilt from scratch")
	}
	const events, frameAllocs = 96, 2
	d := deploy(t, 1)
	n := d.Nodes[0]
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
	payload, err := req.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := transport.Message{Kind: KindSubmitBatch, Payload: payload}
	frame := func() {
		if _, err := n.handle(context.Background(), 99, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		frame() // warm: scratch pool, event pool, intern table
	}
	if got := testing.AllocsPerRun(200, frame); got > events+frameAllocs {
		t.Fatalf("a warm %d-event frame allocated %v objects; budget is one result box per event + %d per frame", events, got, frameAllocs)
	}
}

// catchUpCounter is a core.Replicator whose log is always caught up.
type catchUpCounter struct {
	core.Replicator
	n int
}

func (c *catchUpCounter) CatchUp() error { c.n++; return nil }

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
	fwd1, b2, b3, e2, e3 := n1.Forwarded(), n2.Batches(), n3.Batches(), n2.Executed(), n3.Executed()
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
	if n2.Batches()-b2 != 1 || n3.Batches()-b3 != 1 {
		t.Fatalf("forwarded in %d + %d sub-frames; want one per host", n2.Batches()-b2, n3.Batches()-b3)
	}
	if n2.Executed()-e2 != 4 || n3.Executed()-e3 != 4 || n2.Forwarded() != 0 {
		t.Fatalf("peers executed %d + %d events and node 2 forwarded %d; want 4 + 4 and the stale ones refused (Hops+1 reached the budget)",
			n2.Executed()-e2, n3.Executed()-e3, n2.Forwarded())
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
// outcome, on the single and the batch path alike: a forward hop that failed
// in the transport arrives as that link error with class unknown — nothing
// says whether the peer executed — a peer's short batch response leaves the
// missing slots unknown too, and the runtime's own refusals arrive as their
// sentinels with the class the table gives them. (At the parent commit every
// row but the insufficient-funds one read as kind "app": a handler failure.)
func TestFailuresArriveAsThemselves(t *testing.T) {
	d, fm, net := deployFaulty(t, 3)
	n1 := d.Nodes[0]
	on2, on3 := d.Top.Accounts[1], d.Top.Accounts[2]
	net.Partition(1, 2)
	// Node 3 is replaced by a peer that answers a batch frame one outcome
	// short and a single submit with garbage.
	_ = d.Nodes[2].Close()
	ep, err := fm.Attach(3, func(_ context.Context, _ transport.NodeID, req transport.Message) (transport.Message, error) {
		if req.Kind != KindSubmitBatch {
			return transport.Message{Kind: req.Kind, Payload: []byte("garbage")}, nil
		}
		var q schema.SubmitBatchReq
		if err := q.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		short := schema.SubmitBatchResp{Outcomes: make([]schema.BatchOutcome, len(q.Events)-1)}
		for i := range short.Outcomes {
			short.Outcomes[i] = schema.BatchOutcome{Result: 7, Host: 3}
		}
		payload, err := short.MarshalWire(nil)
		return transport.Message{Kind: KindSubmitBatch, Payload: payload}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })

	// A runtime whose one class fails with whatever sentinel it is asked for.
	s := schema.New()
	sentinels := []error{core.ErrMigrating, core.ErrAcquireTimeout, errors.New("handler's own")}
	s.MustDeclareClass("Faulty", func() any { return new(int) }).MustDeclareMethod("fail", func(_ schema.Call, args []any) (schema.Value, error) {
		return schema.Value{}, fmt.Errorf("asked for: %w", sentinels[args[0].(int)])
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
		batch  bool // the single path cannot produce this row
	}{
		{"forward hop partitioned", n1, on2[0], "deposit", []any{1}, transport.ErrPartitioned, schema.OutcomeUnknown, false},
		{"forward response undecodable", n1, on3[0], "deposit", []any{1}, nil, schema.OutcomeUnknown, false},
		{"batch response truncated", n1, on3[0], "deposit", []any{1}, nil, schema.OutcomeUnknown, true},
		{"migrating", nf, faulty, "fail", []any{0}, core.ErrMigrating, schema.NotExecuted, false},
		{"acquire timeout", nf, faulty, "fail", []any{1}, core.ErrAcquireTimeout, schema.OutcomeUnknown, false},
		{"handler's own error", nf, faulty, "fail", []any{2}, schema.CodeApp, schema.ExecutedFailed, false},
		{"unknown context", n1, ownership.ID(90001), "deposit", []any{1}, core.ErrUnknownContext, schema.NotExecuted, false},
	} {
		check := func(path string, code schema.Code, msg string) {
			t.Helper()
			back := schema.Err(code, msg)
			if back == nil || (tc.is != nil && !errors.Is(back, tc.is)) || schema.CodeOf(back).Class() != tc.class {
				t.Errorf("%s, %s path: arrived as code %s (%s): %v; want errors.Is %v with class %s",
					tc.name, path, code.Name(), code.Class(), back, tc.is, tc.class)
			}
		}
		// Two events, so that a response one outcome short still fills slot 0.
		req := schema.SubmitBatchReq{Events: []schema.BatchEvent{
			{Target: tc.target, Method: tc.method, Args: tc.args}, {Target: tc.target, Method: tc.method, Args: tc.args}}}
		last := handleBatch(t, tc.via, &req)[1]
		check("batch", last.Code, last.Err)
		if tc.batch {
			continue
		}
		payload, err := (&schema.SubmitReq{Target: tc.target, Method: tc.method, Args: tc.args}).MarshalWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := tc.via.handle(context.Background(), 99, transport.Message{Kind: KindSubmit, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		var resp schema.SubmitResp
		if err := resp.UnmarshalWire(raw.Payload); err != nil {
			t.Fatal(err)
		}
		check("single", resp.Code, resp.Err)
	}
}

// keeperState is what the args-retention fixture's handlers keep.
type keeperState struct {
	kept [][]any
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
	keeper.MustDeclareMethod("keep", func(call schema.Call, args []any) (schema.Value, error) {
		st := call.State().(*keeperState)
		st.kept = append(st.kept, args)
		kept.Done()
		return schema.Int(len(st.kept)), nil
	})
	keeper.MustDeclareMethod("relay", func(call schema.Call, args []any) (schema.Value, error) {
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
			first, _ := args[0].(int)
			round, i := first/1000, first%1000
			if want := []any{round*1000 + i, "memo", ownership.ID(round)}; !reflect.DeepEqual(args, want) || seen[first] {
				t.Fatalf("%s: args %v changed after later frames reused the scratch (or arrived twice); want %v", name, args, want)
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
