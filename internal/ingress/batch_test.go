package ingress_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aeon/internal/core"
	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// TestClientSubmitBatchAcrossFleet pins the batch SDK contract over real
// TCP: one SubmitBatch spanning accounts on three nodes lands every event,
// results are index-aligned, and the routing cache converges from the
// per-event Host repair so the next batch goes direct.
func TestClientSubmitBatchAcrossFleet(t *testing.T) {
	d, mesh := deployTCP(t, 3)
	c := dial(t, mesh, d, ingress.Config{})

	var items []ingress.BatchItem
	for bi, accounts := range d.Top.Accounts {
		for ai, acct := range accounts {
			items = append(items, ingress.BatchItem{Target: acct, Method: "deposit", Args: []any{10*(bi+1) + ai}})
		}
	}
	for i, r := range c.SubmitBatch(items) {
		if r.Err != nil {
			t.Fatalf("deposit %d: %v", i, r.Err)
		}
	}
	var reads []ingress.BatchItem
	for _, accounts := range d.Top.Accounts {
		for _, acct := range accounts {
			reads = append(reads, ingress.BatchItem{Target: acct, Method: "balance"})
		}
	}
	res := c.SubmitBatch(reads)
	i := 0
	for bi, accounts := range d.Top.Accounts {
		for ai, acct := range accounts {
			if res[i].Err != nil {
				t.Fatalf("balance bank %d acct %d: %v", bi, ai, res[i].Err)
			}
			want := 1000 + 10*(bi+1) + ai
			if res[i].Result.Int() != want {
				t.Fatalf("bank %d acct %d balance = %v, want %d", bi, ai, res[i].Result.Any(), want)
			}
			if host, ok := c.Route(acct); !ok || host != transport.NodeID(bi+1) {
				t.Fatalf("route for bank %d acct %d = %v (ok=%v), want %d", bi, ai, host, ok, bi+1)
			}
			i++
		}
	}
}

// TestClientBatchPartialFailure pins per-event failure isolation: a batch
// mixing good events with an unknown target, an unknown method, and an
// app-level failure returns a typed error in exactly the failing slots —
// siblings execute and their effects are visible afterwards.
func TestClientBatchPartialFailure(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	c := dial(t, mesh, d, ingress.Config{})

	acctA := d.Top.Accounts[0][0]
	acctB := d.Top.Accounts[1][0]
	res := c.SubmitBatch([]ingress.BatchItem{
		{Target: acctA, Method: "deposit", Args: []any{5}},
		{Target: ownership.ID(1 << 40), Method: "deposit", Args: []any{1}},
		{Target: acctB, Method: "no-such-method"},
		{Target: acctA, Method: "withdraw", Args: []any{1 << 30}},
		{Target: acctB, Method: "deposit", Args: []any{7}},
	})
	if res[0].Err != nil {
		t.Fatalf("good deposit poisoned by batchmates: %v", res[0].Err)
	}
	if !errors.Is(res[1].Err, core.ErrUnknownContext) {
		t.Fatalf("unknown target err = %v, want ErrUnknownContext", res[1].Err)
	}
	if !errors.Is(res[2].Err, core.ErrUnknownMethod) {
		t.Fatalf("unknown method err = %v, want ErrUnknownMethod", res[2].Err)
	}
	if res[3].Err == nil {
		t.Fatalf("overdraft withdraw succeeded inside batch")
	}
	if res[4].Err != nil {
		t.Fatalf("good deposit after failures: %v", res[4].Err)
	}
	// The failing slots must not have blocked their siblings' effects.
	if bal, err := c.Submit(acctA, "balance"); err != nil || bal.(int) != 1005 {
		t.Fatalf("acctA balance = %v (%v), want 1005", bal, err)
	}
	if bal, err := c.Submit(acctB, "balance"); err != nil || bal.(int) != 1007 {
		t.Fatalf("acctB balance = %v (%v), want 1007", bal, err)
	}
}

// TestClientBatchStaleRouteRepair pins the batch analogue of stale-route
// repair: after a migration invalidates the cached route, a batch of events
// for the moved group succeeds via server-side forwarding — regrouped as ONE
// forwarded frame, not one per event — and the per-event Host repair makes
// the next submit go direct.
func TestClientBatchStaleRouteRepair(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	c := dial(t, mesh, d, ingress.Config{})

	bank2 := d.Top.Banks[1]
	acct := d.Top.Accounts[1][0]
	if _, err := c.Submit(acct, "deposit", 5); err != nil {
		t.Fatalf("warm deposit: %v", err)
	}
	if host, ok := c.Route(acct); !ok || host != 2 {
		t.Fatalf("route before migration = %v (ok=%v), want 2", host, ok)
	}
	if err := d.Nodes[0].MigrateRemote(2, bank2, 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	fwdBefore := d.Nodes[1].Forwarded()
	subBatchesBefore := batchFrames(t, d.Nodes[0])
	res := c.SubmitBatch([]ingress.BatchItem{
		{Target: acct, Method: "deposit", Args: []any{1}},
		{Target: acct, Method: "deposit", Args: []any{1}},
		{Target: acct, Method: "deposit", Args: []any{1}},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("stale-routed event %d: %v", i, r.Err)
		}
	}
	if got := d.Nodes[1].Forwarded() - fwdBefore; got != 3 {
		t.Fatalf("stale batch forwarded %d events, want 3", got)
	}
	// The three misrouted events must ride one regrouped sub-batch frame.
	if got := batchFrames(t, d.Nodes[0]) - subBatchesBefore; got != 1 {
		t.Fatalf("forwarding used %d sub-batch frames, want 1", got)
	}
	if host, ok := c.Route(acct); !ok || host != 1 {
		t.Fatalf("route after batch repair = %v (ok=%v), want 1", host, ok)
	}
	fwdBefore = d.Nodes[1].Forwarded()
	if bal, err := c.Submit(acct, "balance"); err != nil || bal.(int) != 1008 {
		t.Fatalf("balance after repair = %v (%v), want 1008", bal, err)
	}
	if got := d.Nodes[1].Forwarded() - fwdBefore; got != 0 {
		t.Fatalf("repaired route still forwarded %d times", got)
	}
}

// TestClientBatchChunking pins MaxBatch chunking: a SubmitBatch larger than
// MaxBatch splits into ceil(n/MaxBatch) pipelined frames, every event lands,
// and the node-side frame count proves the split happened on the wire.
func TestClientBatchChunking(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	c := dial(t, mesh, d, ingress.Config{MaxBatch: 8})

	acct := d.Top.Accounts[0][0]
	if _, err := c.Submit(acct, "deposit", 0); err != nil { // warm the route
		t.Fatal(err)
	}
	before := batchFrames(t, d.Nodes[0])
	items := make([]ingress.BatchItem, 30)
	for i := range items {
		items[i] = ingress.BatchItem{Target: acct, Method: "deposit", Args: []any{1}}
	}
	for i, r := range c.SubmitBatch(items) {
		if r.Err != nil {
			t.Fatalf("chunked deposit %d: %v", i, r.Err)
		}
	}
	if got := batchFrames(t, d.Nodes[0]) - before; got != 4 {
		t.Fatalf("30 events at MaxBatch=8 used %d frames, want 4", got)
	}
	if bal, err := c.Submit(acct, "balance"); err != nil || bal.(int) != 1030 {
		t.Fatalf("balance = %v (%v), want 1030", bal, err)
	}
}

// TestClientBatchTypedErrorsRawProtocol pins the wire contract without a
// real fleet: a fake node speaks raw SubmitBatchReq/Resp frames and rejects
// one event with the backpressure error kind. The client must surface
// core.ErrBackpressure for that slot only — batchmates keep their results —
// proving typed errors round-trip through the batch codec itself.
func TestClientBatchTypedErrorsRawProtocol(t *testing.T) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	fake, err := mesh.Attach(1, func(ctx context.Context, from transport.NodeID, req transport.Message) (transport.Message, error) {
		if req.Kind != node.KindSubmitBatch {
			return transport.Message{}, errors.New("fake node: unexpected kind " + req.Kind)
		}
		var br schema.SubmitBatchReq
		if err := br.UnmarshalWire(req.Payload); err != nil {
			return transport.Message{}, err
		}
		resp := schema.SubmitBatchResp{Outcomes: make([]schema.BatchOutcome, len(br.Events))}
		for i := range br.Events {
			if br.Events[i].Method == "reject" {
				resp.Outcomes[i] = schema.BatchOutcome{Err: "queue full", Code: schema.CodeBackpressure, Host: 1}
			} else {
				resp.Outcomes[i] = schema.BatchOutcome{Result: i, Host: 1}
			}
		}
		payload, err := resp.MarshalWire(nil)
		if err != nil {
			return transport.Message{}, err
		}
		return transport.Message{Kind: req.Kind, Payload: payload}, nil
	})
	if err != nil {
		t.Fatalf("attach fake node: %v", err)
	}
	t.Cleanup(func() { _ = fake.Close() })

	c, err := ingress.Dial(mesh, ingress.Config{Nodes: []transport.NodeID{1}})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })

	res := c.SubmitBatch([]ingress.BatchItem{
		{Target: ownership.ID(10), Method: "ok"},
		{Target: ownership.ID(11), Method: "reject"},
		{Target: ownership.ID(12), Method: "ok"},
	})
	if res[0].Err != nil || res[0].Result.Int() != 0 {
		t.Fatalf("slot 0 = (%v, %v), want (0, nil)", res[0].Result.Any(), res[0].Err)
	}
	if !errors.Is(res[1].Err, core.ErrBackpressure) {
		t.Fatalf("rejected slot err = %v, want ErrBackpressure", res[1].Err)
	}
	if res[2].Err != nil || res[2].Result.Int() != 2 {
		t.Fatalf("slot 2 = (%v, %v), want (2, nil)", res[2].Result.Any(), res[2].Err)
	}
}

// TestClientCoalescedGo pins the transparent batching of the async path:
// many Go futures issued back-to-back ride far fewer batch frames than
// events, every deposit lands, and the in-flight window recycles its slots
// exactly (a leaked slot would deadlock the later rounds under the small
// Window).
func TestClientCoalescedGo(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	c := dial(t, mesh, d, ingress.Config{Window: 32})

	acct := d.Top.Accounts[1][0]
	if _, err := c.Submit(acct, "deposit", 0); err != nil { // warm the route
		t.Fatal(err)
	}
	before := batchFrames(t, d.Nodes[0]) + batchFrames(t, d.Nodes[1])
	const deposits = 100
	futures := make([]*ingress.Future, 0, deposits)
	for i := 0; i < deposits; i++ {
		futures = append(futures, c.Go(acct, "deposit", 1))
	}
	for i, f := range futures {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("coalesced deposit %d: %v", i, err)
		}
	}
	frames := batchFrames(t, d.Nodes[0]) + batchFrames(t, d.Nodes[1]) - before
	if frames == 0 || frames > 20 {
		t.Fatalf("%d deposits rode %d batch frames, want coalescing (1..20)", deposits, frames)
	}
	if bal, err := c.Submit(acct, "balance"); err != nil || bal.(int) != 1000+deposits {
		t.Fatalf("balance = %v (%v), want %d", bal, err, 1000+deposits)
	}
}

// gatedIoT is the iot scenario plus Sensor.park, a handler that reports on
// entered and then waits for the gate: the frame that carries one is "a frame
// in flight" for exactly as long as the test says.
type gatedIoT struct {
	*workload.IoT
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

// open opens the gate; calling it again is harmless.
func (g *gatedIoT) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedIoT) Schema() *schema.Schema {
	s := g.IoT.Schema()
	s.Class("Sensor").MustDeclareMethod("park", func(schema.Call, []schema.Value) (schema.Value, error) {
		g.entered <- struct{}{}
		<-g.gate
		return schema.Value{}, nil
	})
	return s
}

// sensor returns the ID of the scenario's e-th sensor.
func (g *gatedIoT) sensor(e int) ownership.ID {
	var id ownership.ID
	_, _ = g.ReadEntity(func(target ownership.ID, _ string, _ ...any) (any, error) {
		id = target
		return 0, nil
	}, e)
	return id
}

// deployGated deploys the gated scenario on one TCP node and dials a client
// whose routes to sensors 0..2 are warm, so every Go below rides the one
// coalescer. The gate opens before the deployment closes.
func deployGated(t *testing.T, cfg ingress.Config) (*gatedIoT, *node.Node, *ingress.Client) {
	t.Helper()
	g := &gatedIoT{IoT: workload.NewIoT(1, 0), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	mesh := transport.NewTCPMesh()
	d, err := node.Deploy(mesh, node.Topology{Nodes: 1, Scenario: g, EnableOps: true})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	t.Cleanup(d.Close)
	t.Cleanup(g.open) // runs first: parked handlers return before the node closes
	if err := d.WaitReady(10 * time.Second); err != nil {
		t.Fatalf("deployment not ready: %v", err)
	}
	c := dial(t, mesh, d, cfg)
	for e := 0; e < 3; e++ {
		if _, err := c.Submit(g.sensor(e), "ingest", 0); err != nil {
			t.Fatalf("warm sensor %d: %v", e, err)
		}
	}
	return g, d.Nodes[0], c
}

// park puts one frame of c's coalescer in flight and returns its future once
// the handler holds it.
func (g *gatedIoT) park(t *testing.T, c *ingress.Client) *ingress.Future {
	t.Helper()
	f := c.Go(g.sensor(0), "park")
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("the first Go never reached the node after 5s: an idle wire held it")
	}
	return f
}

// await is Future.Wait with the tests' 5 s bound.
func await(t *testing.T, f *ingress.Future, what string) (any, error) {
	t.Helper()
	done := make(chan struct{})
	var (
		v   any
		err error
	)
	go func() {
		v, err = f.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not resolved after 5s", what)
	}
	return v, err
}

// TestCoalescerIdleWireNeedsNoTimer pins the idle half of the flush rule: with
// no frame of the coalescer in flight a lone Go leaves at once, and arms no
// timer — on a clock whose timers never fire it can only have left without one.
func TestCoalescerIdleWireNeedsNoTimer(t *testing.T) {
	clk := ingress.UseManualClock(t)
	g, _, c := deployGated(t, ingress.Config{})
	if v, err := await(t, c.Go(g.sensor(1), "ingest", 7), "lone Go on an idle wire"); err != nil || v.(int) != 7 {
		t.Fatalf("lone Go = %v (%v), want 7", v, err)
	}
	if st := c.CoalescerStats(); st.FlushIdle != 1 || st.Flushes != 1 || st.FlushLinger != 0 {
		t.Fatalf("stats = %+v; want exactly one idle flush", st)
	}
	if n := clk.Armed(); n != 0 {
		t.Fatalf("a lone Go on an idle wire armed %d linger timers", n)
	}
}

// TestCoalescerGathersBehindFrameInFlight pins the loaded half: events issued
// while a frame is in flight wait for it, and its return — not a timer —
// sends them, together, as the next frame.
func TestCoalescerGathersBehindFrameInFlight(t *testing.T) {
	ingress.UseManualClock(t) // the linger never fires
	g, n, c := deployGated(t, ingress.Config{})
	before := batchFrames(t, n)
	first := g.park(t, c)
	const k = 9
	var futures []*ingress.Future
	for i := 0; i < k; i++ {
		futures = append(futures, c.Go(g.sensor(1+i%2), "ingest", 1))
	}
	if got := batchFrames(t, n) - before; got != 1 {
		t.Fatalf("%d frames reached the node while the first was in flight, want 1", got)
	}
	g.open()
	if _, err := await(t, first, "parked event"); err != nil {
		t.Fatalf("parked event: %v", err)
	}
	for i, f := range futures {
		if _, err := await(t, f, "event gathered behind the frame in flight"); err != nil {
			t.Fatalf("gathered event %d: %v", i, err)
		}
	}
	if got := batchFrames(t, n) - before; got != 2 {
		t.Fatalf("%d events rode %d frames, want 2 (1, then %d)", 1+k, got, k)
	}
	if st := c.CoalescerStats(); st.FlushIdle != 2 || st.Flushes != 2 || st.Events != 1+k || st.FlushLinger != 0 {
		t.Fatalf("stats = %+v; want two idle flushes carrying 1 and %d events, and nothing else", st, k)
	}
}

// TestCoalescerLingerBoundsWaitBehindStuckFrame pins what the linger is for: a
// frame stuck behind a parked handler must not hold back an event for another
// context past the linger. The second event waits while its linger timer is
// held, and leaves when the timer fires, not when the frame returns: it
// resolves while the first is still parked, and is counted as a linger flush.
func TestCoalescerLingerBoundsWaitBehindStuckFrame(t *testing.T) {
	clk := ingress.UseManualClock(t)
	g, _, c := deployGated(t, ingress.Config{})
	first := g.park(t, c)
	behind := c.Go(g.sensor(1), "ingest", 3)
	if st, n := c.CoalescerStats(), clk.Armed(); st.Flushes != 1 || n != 1 {
		t.Fatalf("before the linger fired: stats = %+v, %d timers armed; want only the parked frame flushed and one linger armed", st, n)
	}
	if n := clk.Fire(); n != 1 {
		t.Fatalf("fired %d linger timers, want 1", n)
	}
	if v, err := await(t, behind, "event behind a stuck frame"); err != nil || v.(int) != 3 {
		t.Fatalf("event behind a stuck frame = %v (%v), want 3", v, err)
	}
	if st := c.CoalescerStats(); st.FlushLinger != 1 || st.FlushIdle != 1 {
		t.Fatalf("stats = %+v; want the parked frame's idle flush and one linger flush", st)
	}
	g.open() // only now does the first frame return
	if _, err := await(t, first, "parked event"); err != nil {
		t.Fatalf("parked event: %v", err)
	}
}

// TestClientCoalescedGoCloseFailsPending pins Close's contract for the
// coalescer: events still waiting behind a frame in flight when the client
// closes resolve with ErrClientClosed, as one close flush, instead of hanging
// until the linger elapses or forever.
func TestClientCoalescedGoCloseFailsPending(t *testing.T) {
	ingress.UseManualClock(t) // the linger never fires
	g, _, c := deployGated(t, ingress.Config{})
	first := g.park(t, c)
	pending := []*ingress.Future{c.Go(g.sensor(1), "ingest", 1), c.Go(g.sensor(2), "ingest", 1)}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, f := range pending {
		if _, err := await(t, f, "pending future"); !errors.Is(err, ingress.ErrClientClosed) {
			t.Fatalf("pending future %d err = %v, want ErrClientClosed", i, err)
		}
	}
	if _, err := await(t, first, "frame in flight at Close"); err == nil {
		t.Fatalf("the frame in flight at Close resolved without error")
	}
	if st := c.CoalescerStats(); st.FlushClose != 1 || st.FlushLinger != 0 {
		t.Fatalf("stats = %+v; want exactly one close flush", st)
	}
}

// TestClientBatchConcurrentRace is the batched-ingress -race stress: several
// clients mix coalesced Go futures and explicit SubmitBatches against the
// same fleet concurrently; every event must land exactly once (verified
// balances) with no data race in the coalescer, batch codec, or completion
// plane.
func TestClientBatchConcurrentRace(t *testing.T) {
	d, mesh := deployTCP(t, 2)
	const clients = 3
	const goEvents = 60
	const batchRounds = 6
	const perBatch = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	accts := make([]ownership.ID, clients)
	for ci := 0; ci < clients; ci++ {
		c := dial(t, mesh, d, ingress.Config{Window: 64})
		acct := d.Top.Accounts[ci%2][ci]
		accts[ci] = acct
		wg.Add(1)
		go func(c *ingress.Client, acct ownership.ID) {
			defer wg.Done()
			futures := make([]*ingress.Future, 0, goEvents)
			for i := 0; i < goEvents; i++ {
				futures = append(futures, c.Go(acct, "deposit", 1))
				if i%10 == 9 {
					items := make([]ingress.BatchItem, perBatch)
					for j := range items {
						items[j] = ingress.BatchItem{Target: acct, Method: "deposit", Args: []any{1}}
					}
					for _, r := range c.SubmitBatch(items) {
						if r.Err != nil {
							errs <- r.Err
							return
						}
					}
				}
			}
			for _, f := range futures {
				if _, err := f.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(c, acct)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check := dial(t, mesh, d, ingress.Config{})
	want := 1000 + goEvents + batchRounds*perBatch
	for ci, acct := range accts {
		bal, err := check.Submit(acct, "balance")
		if err != nil || bal.(int) != want {
			t.Fatalf("client %d balance = %v (%v), want %d", ci, bal, err, want)
		}
	}
}

// TestCoalescerFlushReasons pins the flush-reason accounting the ops plane
// exports, each reason forced by the gate rather than by who runs first: the
// frame that leaves an idle wire and the one its return releases count as
// idle flushes, a batch that reaches MaxBatch behind a frame in flight as a
// fill flush, and what Close finds still waiting as a close flush (the linger
// flush is pinned by TestCoalescerLingerBoundsWaitBehindStuckFrame). Fill
// ratio must land in (0, 1].
func TestCoalescerFlushReasons(t *testing.T) {
	ingress.UseManualClock(t) // the linger never fires
	g, _, c := deployGated(t, ingress.Config{MaxBatch: 4, Window: 32})
	first := g.park(t, c) // idle wire: flushed at once
	var futures []*ingress.Future
	for i := 0; i < 6; i++ { // four fill a batch and leave; two wait for the frame in flight
		futures = append(futures, c.Go(g.sensor(1), "ingest", 1))
	}
	for i, f := range futures[:4] {
		if _, err := await(t, f, "event of the filled batch"); err != nil {
			t.Fatalf("fill deposit %d: %v", i, err)
		}
	}
	if st := c.CoalescerStats(); st.FlushFill != 1 || st.FlushIdle != 1 || st.Events != 5 {
		t.Fatalf("stats behind the parked frame = %+v; want one idle and one fill flush carrying 5 events", st)
	}
	g.open()
	for _, f := range append(futures[4:], first) {
		if _, err := await(t, f, "event released by the frame's return"); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CoalescerStats()
	if st.FlushIdle != 2 || st.FlushFill != 1 || st.FlushLinger != 0 || st.FlushClose != 0 || st.Flushes != 3 || st.Events != 7 {
		t.Fatalf("stats = %+v; want 2 idle + 1 fill flushes carrying 7 events", st)
	}
	if r := st.FillRatio(); r <= 0 || r > 1 {
		t.Fatalf("fill ratio = %v; want (0, 1]", r)
	}
}
