package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// The traced run. Spans are recorded only here, in the benchmark's own
// files, around the public call of each layer; spans inside the program are
// a later change. Two parts: (a) a stage replay that walks events of the
// workload's own stream through every layer they would cross, one timed
// call per layer, beside the real Client.Submit of the same event, so the
// stage sum can be reconciled with the end-to-end figure; (b) the
// closed-loop slices rerun with ingress tracing on, to price the program's own
// tracing.

// span is one record of the trace file.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"` // index of the parent span in the file, -1 for a root
	EventID int64  `json:"event_id"`
}

// tracer keeps spans in a preallocated slice and writes them out at exit.
type tracer struct {
	mu      sync.Mutex
	base    time.Time
	spans   []span
	dropped int
}

func newTracer(budget int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, budget)}
}

// begin opens a span and returns its index (-1 once the budget is spent).
func (t *tracer) begin(name string, parent int32, event int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, EventID: event, StartNS: time.Since(t.base).Nanoseconds()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	now := time.Since(t.base).Nanoseconds()
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].EndNS = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took. A nil tracer
// only times.
func (t *tracer) timed(name string, parent int32, event int64, fn func() error) (time.Duration, error) {
	s := int32(-1)
	if t != nil {
		s = t.begin(name, parent, event)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if t != nil {
		t.end(s)
	}
	return d, err
}

// selfTimesUS returns, per span name, every span's self time: its duration
// minus the part its child spans cover.
func (t *tracer) selfTimesUS() map[string][]float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-covered[i])/1e3)
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedRun is everything the traced invocation does after the measured
// phases: tracing overhead, stage replay, layer micro-timings.
func tracedRun(cfg runConfig, res *runResult, f *fleet, g *loadgen, tr *tracer) error {
	if err := traceOverhead(cfg, res, f, g); err != nil {
		return err
	}
	rp, err := newReplayer(f, g, tr)
	if err != nil {
		return err
	}
	defer rp.close()
	if err := rp.singles(res); err != nil {
		return err
	}
	if err := rp.batches(res); err != nil {
		return err
	}
	rp.codecTimings(res)
	if err := rp.coreTimings(res); err != nil {
		return err
	}
	if err := rp.storeTimings(res); err != nil {
		return err
	}
	if tr.dropped > 0 {
		res.notef("trace: %d spans past the %d-span budget were not recorded", tr.dropped, cap(tr.spans))
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.spec.Name+".json")
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.notef("trace: %d spans written to %s", len(tr.spans), path)
	return nil
}

// traceOverhead alternates untraced and traced saturation segments on
// otherwise identical clients and reads the nodes' span records back
// through their event feeds.
func traceOverhead(cfg runConfig, res *runResult, f *fleet, g *loadgen) error {
	spec := f.spec
	traced, err := ingress.Dial(f.mesh, ingress.Config{
		Nodes: nodeIDs(spec.Nodes), Window: clientWindow, NoCoalesce: spec.RPC, Trace: true,
	})
	if err != nil {
		return err
	}
	defer traced.Close()
	// Many short pairs, each judged on its own: the two halves of a pair run
	// 100 ms apart, on the same host state.
	const pairs = 30
	seg := time.Duration(cfg.seconds * 0.3 / (2 * pairs) * float64(time.Second))
	segment := func(c *ingress.Client, d time.Duration) float64 {
		calls := make([]callFunc, closedCallers)
		for k := range calls {
			if spec.RPC {
				calls[k] = clientSubmit(c)
			} else {
				calls[k] = clientSubmitBatch(c)
			}
		}
		var p phaseResult
		if spec.RPC {
			p = g.runClosed(phaseRPC, calls, 1, d)
		} else {
			p = g.runClosed(phaseSat, calls, satBatch, d)
		}
		return p.eps()
	}
	segment(traced, seg/2) // the traced client learns its routes
	var plain, withTrace, overhead, handlerUS []float64
	var emitted, dropped float64
	for i := 0; i < pairs; i++ {
		plain = append(plain, segment(f.sat, seg))
		from := make([]uint64, len(f.dep.Nodes))
		for k, n := range f.dep.Nodes {
			from[k] = n.Ops().EventSeq()
		}
		withTrace = append(withTrace, segment(traced, seg))
		for k, n := range f.dep.Nodes {
			events, lost, next, _ := n.Ops().EventsSince(from[k])
			emitted += float64(next - from[k])
			dropped += float64(lost)
			for _, e := range events {
				if us, ok := e.Fields["us"].(int64); ok && e.Type == "trace.span" {
					handlerUS = append(handlerUS, float64(us))
				}
			}
		}
	}
	for i := range plain {
		overhead = append(overhead, 1-withTrace[i]/plain[i])
	}
	res.values["ops.trace_overhead_ratio"] = median(overhead)
	res.values["ops.spans_emitted"] = emitted
	res.values["ops.spans_dropped"] = dropped
	res.values["ops.span_handler_us_p50"] = median(handlerUS)
	res.notef("ops.trace_overhead_ratio: %d untraced/traced pairs of %v; untraced %.0f ev/s, traced %.0f ev/s; %d span records read back",
		pairs, seg, median(plain), median(withTrace), len(handlerUS))
	return nil
}

// replayer holds what the stage replay needs: an echo endpoint on the
// fleet's own mesh, and reusable frame buffers.
type replayer struct {
	f  *fleet
	g  *loadgen
	tr *tracer

	echo, caller transport.Endpoint
	st           transport.Stream
	reqBuf       []byte
	respBuf      []byte
}

const echoNode transport.NodeID = 1 << 18

func newReplayer(f *fleet, g *loadgen, tr *tracer) (*replayer, error) {
	rp := &replayer{f: f, g: g, tr: tr}
	var err error
	rp.echo, err = f.mesh.Attach(echoNode, func(_ context.Context, _ transport.NodeID, req transport.Message) (transport.Message, error) {
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	rp.caller, err = f.mesh.Attach(echoNode+1, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, fmt.Errorf("replay caller does not serve")
	})
	if err != nil {
		rp.close()
		return nil, err
	}
	st, ok, err := transport.OpenStream(rp.caller, echoNode)
	if err != nil || !ok {
		rp.close()
		return nil, fmt.Errorf("open echo stream: supported=%v err=%v", ok, err)
	}
	rp.st = st
	return rp, nil
}

func (rp *replayer) close() {
	if rp.st != nil {
		_ = rp.st.Close()
	}
	if rp.caller != nil {
		_ = rp.caller.Close()
	}
	if rp.echo != nil {
		_ = rp.echo.Close()
	}
}

// host is the node currently hosting target, as the warmed client learned it.
func (rp *replayer) host(target ownership.ID) *node.Node {
	if id, ok := rp.f.sat.Route(target); ok {
		if n := rp.f.dep.Node(id); n != nil {
			return n
		}
	}
	return rp.f.dep.Nodes[0]
}

// singleStages are the layers one unbatched remote event crosses, in order.
var singleStages = []string{
	"schema.submit_encode", "transport.mux_call", "schema.submit_decode",
	"ownership.resolve", "node.local_submit", "schema.resp_codec",
}

// singles replays replayEvents events one stage at a time, each stage a
// child span of one "event" span, beside a span around the real
// Client.Submit of the same event.
func (rp *replayer) singles(res *runResult) error {
	ctx := context.Background()
	tr := rp.tr
	e2e := make([]float64, 0, replayEvents)
	for i := 0; i < replayEvents; i++ {
		o, _ := rp.g.nextOp()
		id := int64(i)
		host := rp.host(o.Target)
		var (
			echoed transport.Message
			dec    schema.SubmitReq
			result any
		)
		ev := tr.begin("event", -1, id)
		stages := []func() error{
			func() (err error) {
				req := schema.SubmitReq{Target: o.Target, Method: o.Method, Args: o.Args}
				rp.reqBuf, err = req.MarshalWire(rp.reqBuf[:0])
				return err
			},
			func() (err error) {
				echoed, err = rp.st.Call(ctx, transport.Message{Kind: "echo", Payload: rp.reqBuf})
				return err
			},
			func() error { return dec.UnmarshalWire(echoed.Payload) },
			func() error {
				_, _, err := host.Runtime().Graph().Resolve(dec.Target)
				return err
			},
			func() error {
				var err error
				result, err = host.Submit(dec.Target, dec.Method, dec.Args...)
				rp.g.tally.record(o, err)
				return nil // an event's own failure is the oracle's business
			},
			func() (err error) {
				resp := schema.SubmitResp{Result: result, Host: int64(host.ID())}
				if rp.respBuf, err = resp.MarshalWire(rp.respBuf[:0]); err != nil {
					return err
				}
				var back schema.SubmitResp
				return back.UnmarshalWire(rp.respBuf)
			},
		}
		for k, stage := range stages {
			if _, err := tr.timed(singleStages[k], ev, id, stage); err != nil {
				return fmt.Errorf("replay %s: %w", singleStages[k], err)
			}
		}
		tr.end(ev)

		d, err := tr.timed("client.submit", -1, id, func() error { return submitOne(rp.f.sat, o) })
		e2e = append(e2e, float64(d.Nanoseconds())/1e3)
		rp.g.tally.record(o, err)
	}

	self := tr.selfTimesUS()
	v := res.values
	var stageSum float64
	for _, name := range singleStages {
		m := median(self[name])
		stageSum += m
		res.notef("stage %-22s self p50 %8.3f us", name, m)
	}
	res.notef("stage %-22s self p50 %8.3f us (span bookkeeping between stages)", "event", median(self["event"]))
	rtt := append([]float64(nil), self["transport.mux_call"]...)
	sort.Float64s(rtt)
	v["transport.mux_rtt_us_p50"] = percentile(rtt, 0.5)
	v["transport.mux_rtt_us_p90"] = percentile(rtt, 0.9)
	v["node.local_submit_ns"] = median(self["node.local_submit"]) * 1e3
	v["loadgen.stage_sum_us"] = stageSum
	v["loadgen.stage_e2e_us"] = median(e2e)
	v["loadgen.stage_residual_us"] = median(e2e) - stageSum
	res.notef("stage replay: %d events; stage sum %.2f us, Client.Submit p50 %.2f us, residual %.2f us (%.0f%% of end to end)",
		replayEvents, stageSum, median(e2e), median(e2e)-stageSum, 100*(median(e2e)-stageSum)/median(e2e))

	// CallBatch: four single-event frames as one pipelined flight.
	msgs := make([]transport.Message, 4)
	for i := range msgs {
		msgs[i] = transport.Message{Kind: "echo", Payload: rp.reqBuf}
	}
	flights := make([]float64, 2000)
	for i := range flights {
		t0 := time.Now()
		if _, _, err := transport.StreamCallBatch(ctx, rp.st, msgs); err != nil {
			return fmt.Errorf("echo batch call: %w", err)
		}
		flights[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	v["transport.mux_batch_rtt_us_p50"] = median(flights)
	return nil
}

var batchStages = []string{
	"schema.batch_encode", "transport.mux_call_batch", "schema.batch_decode",
	"ownership.resolve_batch", "node.local_submit_batch", "schema.batch_resp_codec",
}

// batches does the same for replayBatches frames of replayBatch events.
func (rp *replayer) batches(res *runResult) error {
	ctx := context.Background()
	tr := rp.tr
	e2e := make([]float64, 0, replayBatches)
	ops := make([]*op, replayBatch)
	for b := 0; b < replayBatches; b++ {
		id := int64(replayEvents + b)
		req := schema.SubmitBatchReq{Events: make([]schema.BatchEvent, replayBatch)}
		resp := schema.SubmitBatchResp{Outcomes: make([]schema.BatchOutcome, replayBatch)}
		items := make([]ingress.BatchItem, replayBatch)
		for i := range ops {
			o, _ := rp.g.nextOp()
			ops[i] = o
			req.Events[i] = schema.BatchEvent{Target: o.Target, Method: o.Method, Args: o.Args}
			items[i] = ingress.BatchItem{Target: o.Target, Method: o.Method, Args: o.Args}
		}
		var (
			echoed transport.Message
			dec    schema.SubmitBatchReq
		)
		ev := tr.begin("batch", -1, id)
		stages := []func() error{
			func() (err error) {
				rp.reqBuf, err = req.MarshalWire(rp.reqBuf[:0])
				return err
			},
			func() (err error) {
				echoed, err = rp.st.Call(ctx, transport.Message{Kind: "echo", Payload: rp.reqBuf})
				return err
			},
			func() error { return dec.UnmarshalWire(echoed.Payload) },
			func() error {
				for i := range dec.Events {
					t := dec.Events[i].Target
					if _, _, err := rp.host(t).Runtime().Graph().Resolve(t); err != nil {
						return err
					}
				}
				return nil
			},
			func() error {
				for i := range dec.Events {
					e := &dec.Events[i]
					host := rp.host(e.Target)
					result, err := host.Submit(e.Target, e.Method, e.Args...)
					rp.g.tally.record(ops[i], err)
					resp.Outcomes[i] = schema.BatchOutcome{Result: result, Host: int64(host.ID())}
				}
				return nil
			},
			func() (err error) {
				if rp.respBuf, err = resp.MarshalWire(rp.respBuf[:0]); err != nil {
					return err
				}
				var back schema.SubmitBatchResp
				return back.UnmarshalWire(rp.respBuf)
			},
		}
		for k, stage := range stages {
			if _, err := tr.timed(batchStages[k], ev, id, stage); err != nil {
				return fmt.Errorf("replay %s: %w", batchStages[k], err)
			}
		}
		tr.end(ev)

		var results []ingress.BatchResult
		d, _ := tr.timed("client.submit_batch", -1, id, func() error {
			results = rp.f.sat.SubmitBatch(items)
			return nil
		})
		e2e = append(e2e, float64(d.Nanoseconds())/1e3)
		for i := range results {
			rp.g.tally.record(ops[i], results[i].Err)
		}
	}
	self := tr.selfTimesUS()
	var stageSum float64
	for _, name := range batchStages {
		m := median(self[name])
		stageSum += m
		res.notef("stage %-26s self p50 %9.3f us per %d-event frame", name, m, replayBatch)
	}
	res.values["loadgen.batch_stage_sum_us_per_event"] = stageSum / replayBatch
	res.values["loadgen.batch_stage_e2e_us_per_event"] = median(e2e) / replayBatch
	res.notef("batch replay: %d frames of %d; stage sum %.1f us, Client.SubmitBatch p50 %.1f us (its per-node groups fly concurrently)",
		replayBatches, replayBatch, stageSum, median(e2e))
	return nil
}

// tightLoop calls fn(0..n-1) five times over and returns the median ns and
// the allocations per call.
func tightLoop(n int, fn func(i int)) (ns, allocs float64) {
	const rounds = 5
	vs := make([]float64, rounds)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := range vs {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		vs[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	return median(vs), float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds*n)
}

// codecTimings times the frame codec alone, in tight loops over the
// workload's own ops (span bookkeeping would swamp calls this short).
func (rp *replayer) codecTimings(res *runResult) {
	v := res.values
	var frame []byte
	var dec schema.SubmitReq
	var resp, back schema.SubmitResp
	const singles, frames = 20000, 200
	pool := rp.g.pool
	encNS, encAllocs := tightLoop(singles, func(i int) {
		o := &pool[i]
		req := schema.SubmitReq{Target: o.Target, Method: o.Method, Args: o.Args}
		frame, _ = req.MarshalWire(rp.reqBuf[:0])
	})
	reqBytes := float64(len(frame))
	decNS, decAllocs := tightLoop(singles, func(int) { _ = dec.UnmarshalWire(frame) })
	resp = schema.SubmitResp{Result: 12345, Host: 1}
	var respFrame []byte
	respNS, respAllocs := tightLoop(singles, func(int) {
		respFrame, _ = resp.MarshalWire(rp.respBuf[:0])
		_ = back.UnmarshalWire(respFrame)
	})
	v["schema.submit_encode_ns"] = encNS
	v["schema.submit_decode_ns"] = decNS
	v["schema.resp_codec_ns"] = respNS

	// One 128-event frame per call; figures are per event.
	breq := schema.SubmitBatchReq{Events: make([]schema.BatchEvent, replayBatch)}
	bresp := schema.SubmitBatchResp{Outcomes: make([]schema.BatchOutcome, replayBatch)}
	for i := range breq.Events {
		o := &rp.g.pool[i]
		breq.Events[i] = schema.BatchEvent{Target: o.Target, Method: o.Method, Args: o.Args}
		bresp.Outcomes[i] = schema.BatchOutcome{Result: 12345, Host: 1}
	}
	var bframe, brespFrame []byte
	var bdec schema.SubmitBatchReq
	var bback schema.SubmitBatchResp
	perEvent := func(fn func(int)) (ns, allocs float64) {
		ns, allocs = tightLoop(frames, fn)
		return ns / replayBatch, allocs / replayBatch
	}
	bencNS, bencAllocs := perEvent(func(int) { bframe, _ = breq.MarshalWire(rp.reqBuf[:0]) })
	bdecNS, bdecAllocs := perEvent(func(int) { _ = bdec.UnmarshalWire(bframe) })
	brespNS, brespAllocs := perEvent(func(int) {
		brespFrame, _ = bresp.MarshalWire(rp.respBuf[:0])
		_ = bback.UnmarshalWire(brespFrame)
	})
	v["schema.batch_encode_ns_per_event"] = bencNS
	v["schema.batch_decode_ns_per_event"] = bdecNS
	v["schema.batch_resp_codec_ns_per_event"] = brespNS

	// Bytes and allocations in the framing this workload actually uses.
	if rp.f.spec.RPC {
		v["schema.frame_bytes_per_event"] = reqBytes + float64(len(respFrame))
		v["schema.codec_allocs_per_event"] = encAllocs + decAllocs + respAllocs
	} else {
		v["schema.frame_bytes_per_event"] = float64(len(bframe)+len(brespFrame)) / replayBatch
		v["schema.codec_allocs_per_event"] = bencAllocs + bdecAllocs + brespAllocs
	}
}

// coreTimings times Runtime.Submit and the ownership graph without any
// node, wire or client around them.
func (rp *replayer) coreTimings(res *runResult) error {
	_, rt, err := newOfflineTargets(rp.f.spec)
	if err != nil {
		return err
	}
	defer rt.Close()
	v := res.values
	graph := rt.Graph()

	// Single-context events and events that make sub-calls, separately. The
	// bank stream has none of the latter; Bank.transfer (two sub-calls),
	// back and forth between two accounts, stands in.
	var single, multi, multiOwner []*op
	for i := range rp.g.pool[:4096] {
		o := &rp.g.pool[i]
		if o.SubCalls > 0 {
			multi = append(multi, o)
		} else {
			single = append(single, o)
		}
		if parents, _ := graph.Parents(o.Target); len(parents) > 1 {
			multiOwner = append(multiOwner, o)
		}
	}
	if len(multi) == 0 {
		top := rp.f.bank
		a, b := top.Accounts[0][0], top.Accounts[0][1]
		multi = []*op{
			{Target: top.Banks[0], Method: "transfer", Args: []any{a, b, 1}},
			{Target: top.Banks[0], Method: "transfer", Args: []any{b, a, 1}},
		}
	}
	timeOver := func(ops []*op, fn func(o *op) error) (float64, error) {
		if len(ops) == 0 {
			return 0, nil
		}
		const rounds, n = 5, 4000
		vs := make([]float64, rounds)
		for r := range vs {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := fn(ops[i%len(ops)]); err != nil {
					return 0, err
				}
			}
			vs[r] = float64(time.Since(t0).Nanoseconds()) / n
		}
		return median(vs), nil
	}
	submit := func(o *op) error {
		_, err := rt.Submit(o.Target, o.Method, o.Args...)
		return err
	}
	resolve := func(o *op) error {
		_, _, err := graph.Resolve(o.Target)
		return err
	}
	if v["core.submit_single_ns"], err = timeOver(single, submit); err != nil {
		return err
	}
	if v["core.submit_multi_ns"], err = timeOver(multi, submit); err != nil {
		return err
	}
	if v["ownership.resolve_ns"], err = timeOver(single, resolve); err != nil {
		return err
	}
	if v["ownership.resolve_multiowner_ns"], err = timeOver(multiOwner, resolve); err != nil {
		return err
	}

	// One context creation plus one extra owner edge, on a graph of the
	// workload's size: both are copy-on-write snapshot publications.
	roots := graph.Roots()
	if len(roots) < 2 {
		return fmt.Errorf("ownership.mutate_us needs two roots, graph has %d", len(roots))
	}
	muts := make([]float64, 200)
	for i := range muts {
		t0 := time.Now()
		id, err := graph.AddContext("BenchLeaf", roots[0])
		if err == nil {
			err = graph.AddEdge(roots[1], id)
		}
		if err != nil {
			return fmt.Errorf("ownership mutate: %w", err)
		}
		muts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	v["ownership.mutate_us"] = median(muts)
	return nil
}

// storeTimings times put, get and CAS through the store handle of the last
// node of the deployed fleet (remote on every fleet shape: a peer's store
// node, or the replicated store plane).
func (rp *replayer) storeTimings(res *runResult) error {
	store := rp.f.dep.Nodes[len(rp.f.dep.Nodes)-1].Store()
	const n = 200
	put, get, cas := make([]float64, n), make([]float64, n), make([]float64, n)
	val := []byte("0123456789abcdef0123456789abcdef")
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("benchmark/replay/%d", i)
		id := int64(replayEvents + replayBatches + i)
		var ver uint64
		for _, step := range []struct {
			name string
			us   []float64
			fn   func() error
		}{
			{"cloudstore.put", put, func() (err error) { ver, err = store.Put(key, val); return err }},
			{"cloudstore.get", get, func() error { _, _, err := store.Get(key); return err }},
			{"cloudstore.cas", cas, func() error { _, err := store.CAS(key, ver, val); return err }},
		} {
			d, err := rp.tr.timed(step.name, -1, id, step.fn)
			if err != nil {
				return fmt.Errorf("%s: %w", step.name, err)
			}
			step.us[i] = float64(d.Nanoseconds()) / 1e3
		}
	}
	res.values["cloudstore.put_us_p50"] = median(put)
	res.values["cloudstore.get_us_p50"] = median(get)
	res.values["cloudstore.cas_us_p50"] = median(cas)
	return nil
}
