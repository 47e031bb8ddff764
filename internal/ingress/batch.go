package ingress

// Batched submits. SubmitBatch packs many events into SubmitBatchReq frames —
// one frame per destination node (chunked at Config.MaxBatch) — so the fleet
// pays one wakeup and one admission per frame instead of per event. Go's
// futures ride the same frames transparently, under one rule: an async submit
// waits for batchmates only while one of its per-node coalescer's own frames
// is on the wire to that node. On an idle wire it leaves as soon as the
// coalescer's flusher runs (the client-side analogue of a mux sender's
// one-Gosched yield before it flushes: what the producer issued in the same
// quantum rides along); behind a frame in flight it leaves when that frame
// returns, when the batch fills, or after linger, whichever is first.
// Batching is a consequence of load, never a tax on an idle client. Outcomes
// are per-event: one event's typed error, stale route, or backpressure
// rejection never poisons its batchmates.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"aeon/internal/clock"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// BatchItem is one event in a client-side batch: the wire's own event
// struct, so a batch encodes from the caller's slice in place.
type BatchItem = schema.BatchEvent

// BatchResult is the per-event outcome of SubmitBatch. Err carries the same
// typed sentinels as Submit, which are schema codes (errors.Is(err,
// schema.CodeUnknownContext), schema.CodeBackpressure, ...); Result (a
// schema.Value) is only meaningful when Err is nil.
type BatchResult struct {
	Result schema.Value
	Err    error
}

// frame is one node's share of a batch, and what is paid once for it: the
// events picked from the caller's slice (all of it, in order, when pick is
// nil), whether the route cache named the node for each, and the caller's
// result slots. events, cached and res are index-aligned; pick indexes them.
type frame struct {
	to     transport.NodeID
	events []BatchItem
	cached []bool
	res    []BatchResult
	pick   []int
}

func (f *frame) len() int {
	if f.pick != nil {
		return len(f.pick)
	}
	return len(f.events)
}

// at maps the frame's k-th event to its index in events, cached and res.
func (f *frame) at(k int) int {
	if f.pick != nil {
		return f.pick[k]
	}
	return k
}

// chunk returns the sub-frame of events [start, end).
func (f frame) chunk(start, end int) frame {
	if f.pick != nil {
		f.pick = f.pick[start:end]
	} else {
		f.events, f.cached, f.res = f.events[start:end], f.cached[start:end], f.res[start:end]
	}
	return f
}

func (f *frame) fail(err error) {
	for k := 0; k < f.len(); k++ {
		f.res[f.at(k)].Err = err
	}
}

// batchScratch is the per-call bookkeeping of SubmitBatch that nothing
// outlives — the cache-hit flags and the per-node pick lists — pooled so the
// results slice is the call's one allocation.
type batchScratch struct {
	cached []bool
	groups []frame
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// group returns the frame collecting the events bound for one node (a
// handful per fleet), adding it on first use.
func (sc *batchScratch) group(to transport.NodeID) *frame {
	for g := range sc.groups {
		if sc.groups[g].to == to {
			return &sc.groups[g]
		}
	}
	if n := len(sc.groups); n < cap(sc.groups) {
		sc.groups = sc.groups[:n+1] // a recycled slot keeps its pick capacity
	} else {
		sc.groups = append(sc.groups, frame{})
	}
	f := &sc.groups[len(sc.groups)-1]
	f.to, f.pick = to, f.pick[:0]
	return f
}

// respPool recycles batch-response decode targets: outcomes and results are
// copied straight into the caller's slots, so both slices are scratch.
var respPool = sync.Pool{New: func() any { return new(respScratch) }}

type respScratch struct {
	schema.SubmitBatchResp
	results []schema.Value
}

// SubmitBatch executes many events in as few frames as possible: items are
// grouped by their routed node, each group rides SubmitBatchReq frames
// (chunked at Config.MaxBatch), and groups fly concurrently. The returned
// slice is index-aligned with items. Failures are per-event — a rejected or
// failed event never affects its batchmates — except transport-level faults,
// which fail every event that rode the broken connection.
func (c *Client) SubmitBatch(items []BatchItem) []BatchResult {
	res := make([]BatchResult, len(items))
	if len(items) == 0 {
		return res
	}
	if c.closed.Load() {
		for i := range res {
			res[i].Err = ErrClientClosed
		}
		return res
	}
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.cached) < len(items) {
		sc.cached = make([]bool, len(items))
	}
	cached := sc.cached[:len(items)]
	// One pass under one cache lock: route every item onto its node's pick
	// list (runs of one node reuse the previous item's).
	var g *frame
	c.routeMu.RLock()
	for i := range items {
		var to transport.NodeID
		to, cached[i] = c.routeLocked(items[i].Target)
		if g == nil || g.to != to {
			g = sc.group(to)
		}
		g.pick = append(g.pick, i)
	}
	c.routeMu.RUnlock()
	for i := range sc.groups {
		g := &sc.groups[i]
		g.events, g.cached, g.res = items, cached, res
	}
	if len(sc.groups) == 1 {
		// Single-destination batches — the common case once routes are warm —
		// encode the caller's slice in place.
		f := sc.groups[0]
		f.pick = nil
		c.submitFrame(f)
	} else {
		var wg sync.WaitGroup
		for _, f := range sc.groups[1:] {
			wg.Add(1)
			go func(f frame) {
				defer wg.Done()
				c.submitFrame(f)
			}(f)
		}
		c.submitFrame(sc.groups[0])
		wg.Wait()
	}
	for i := range sc.groups {
		sc.groups[i] = frame{pick: sc.groups[i].pick} // keep the capacity, drop the caller's slices
	}
	sc.groups = sc.groups[:0]
	batchScratchPool.Put(sc)
	return res
}

// submitFrame ships one node's events as pipelined SubmitBatchReq frames
// and fills their result slots.
func (c *Client) submitFrame(f frame) {
	if c.closed.Load() {
		f.fail(ErrClientClosed)
		return
	}
	// One frame suffices for most batches; ship it directly, as Submit does.
	if f.len() <= c.cfg.MaxBatch {
		c.submitChunk(f)
		return
	}

	// Chunk at MaxBatch; each chunk is one frame.
	type sent struct {
		f   frame
		buf *[]byte
	}
	var (
		chunks []sent
		msgs   []transport.Message
	)
	for start := 0; start < f.len(); start += c.cfg.MaxBatch {
		ch := f.chunk(start, min(start+c.cfg.MaxBatch, f.len()))
		buf, payload, err := c.encodeFrame(ch)
		if err != nil {
			ch.fail(err)
			continue
		}
		chunks = append(chunks, sent{f: ch, buf: buf})
		msgs = append(msgs, transport.Message{Kind: schema.KindSubmitBatch, Payload: payload})
	}
	if len(msgs) == 0 {
		return
	}

	ctx := transport.NewDeadline(callTimeout)
	defer ctx.Release()

	resps, errs, fatal := c.ep.CallBatch(ctx, f.to, msgs)
	for k, ch := range chunks {
		schema.PutFrameBuf(ch.buf) // endpoints do not retain payloads past the call
		err := fatal
		if err == nil {
			err = errs[k]
		}
		if err != nil {
			ch.f.fail(fmt.Errorf("ingress: batch submit to %v: %w", f.to, err))
			continue
		}
		c.applyBatchResp(ch.f, resps[k])
		resps[k].Release() // the decoded results own their bytes
	}
}

// encodeFrame encodes one chunk into a pooled buffer, which the caller
// returns with schema.PutFrameBuf once the call it rides has returned.
func (c *Client) encodeFrame(f frame) (*[]byte, []byte, error) {
	req := schema.SubmitBatchReq{Events: f.events, Trace: c.nextTrace()}
	buf := schema.GetFrameBuf()
	payload, err := req.MarshalWirePick((*buf)[:0], f.pick)
	if err != nil {
		schema.PutFrameBuf(buf)
		return nil, nil, fmt.Errorf("ingress: encode batch: %w", err)
	}
	*buf = payload
	return buf, payload, nil
}

// submitChunk ships one frame's worth of events and fills its result slots.
func (c *Client) submitChunk(f frame) {
	buf, payload, err := c.encodeFrame(f)
	if err != nil {
		f.fail(err)
		return
	}
	ctx := transport.NewDeadline(callTimeout)
	defer ctx.Release()
	raw, err := c.ep.Call(ctx, f.to, transport.Message{Kind: schema.KindSubmitBatch, Payload: payload})
	schema.PutFrameBuf(buf) // endpoints do not retain payloads past the call
	if err != nil {
		f.fail(fmt.Errorf("ingress: batch submit to %v: %w", f.to, err))
		return
	}
	c.applyBatchResp(f, raw)
	raw.Release() // the decoded results own their bytes
}

// applyBatchResp decodes one chunk's response through pooled scratch into
// the caller's result slots, repairing the routing cache from each event's
// authoritative host.
func (c *Client) applyBatchResp(f frame, raw transport.Message) {
	br := respPool.Get().(*respScratch)
	defer func() {
		clear(br.Outcomes)
		clear(br.results)
		respPool.Put(br)
	}()
	var err error
	if br.results, err = br.UnmarshalResults(raw.Payload, br.results); err != nil {
		f.fail(fmt.Errorf("ingress: decode batch response: %w", err))
		return
	}
	if len(br.Outcomes) != f.len() {
		f.fail(fmt.Errorf("ingress: node %v returned %d outcomes for a %d-event batch", f.to, len(br.Outcomes), f.len()))
		return
	}
	for k := range br.Outcomes {
		out, i := &br.Outcomes[k], f.at(k)
		// Repair the cache even on per-event failure — the authoritative host
		// is exactly what a mis-routed event needs.
		c.learn(f.events[i].Target, f.to, f.cached[i], out.Host)
		if out.Code != schema.CodeOK {
			f.res[i].Err = schema.Err(out.Code, out.Err)
		} else {
			f.res[i].Result = br.results[k]
		}
	}
}

// batch is a coalescer's pending async submits, index-aligned the way frame
// wants them; cached says, per event, that the route cache named this node.
type batch struct {
	events  []BatchItem
	cached  []bool
	futures []*Future
}

// reset empties a shipped batch for reuse, dropping what it referenced.
func (b batch) reset() batch {
	clear(b.events)
	clear(b.futures)
	return batch{b.events[:0], b.cached[:0], b.futures[:0]}
}

// coalescer batches async submits bound for one node by the package
// comment's rule. On an idle wire the first add wakes the flusher, which
// takes the batch when it runs, ships it, and on its return ships whatever
// gathered behind it: the response is the clock. A batch that fills leaves at
// once on its own goroutine, and the linger timer — armed only when a batch
// starts behind the frame in flight — bounds the wait behind a slow one.
// Flushers and Close race on the pending batch under mu; take hands each
// future to exactly one owner.
type coalescer struct {
	c    *Client
	to   transport.NodeID
	wake chan struct{} // one-deep: a batch is pending on an idle wire; Close closes it

	mu       sync.Mutex
	pending  batch
	since    clock.Instant // when pending's oldest event was added
	timer    clock.Timer   // non-nil while pending waits behind inFlight
	inFlight bool          // the flusher's frame is on the wire
	closed   bool
}

// take claims the pending batch and leaves next, an empty one, in its place.
// Callers hold mu.
func (co *coalescer) take(next batch) batch {
	b := co.pending
	co.pending = next
	if co.timer != nil {
		co.timer.Stop()
		co.timer = nil
	}
	if len(b.futures) > 0 {
		co.c.hold.Record(clock.Since(co.since))
	}
	return b
}

// add enqueues one async submit. The batch's first event decides how it
// leaves: behind a frame in flight it arms the linger timer, on an idle
// wire it wakes the flusher.
func (co *coalescer) add(ev BatchItem, cached bool, f *Future) {
	co.mu.Lock()
	if co.closed { // Go fetched this coalescer before Close drained it
		co.mu.Unlock()
		co.c.resolve(f, nil, ErrClientClosed)
		return
	}
	p := &co.pending
	p.events = append(p.events, ev)
	p.cached = append(p.cached, cached)
	p.futures = append(p.futures, f)
	n := len(p.events)
	if n == 1 {
		co.since = clock.Now()
	}
	switch {
	case n >= co.c.cfg.MaxBatch:
		b := co.take(batch{})
		co.mu.Unlock()
		go co.ship(b, &co.c.flushFill)
		return
	case n > 1:
	case co.inFlight:
		co.timer = clock.AfterFunc(linger, co.flushAfterLinger)
	default:
		select {
		case co.wake <- struct{}{}:
		default: // a wake is already pending
		}
	}
	co.mu.Unlock()
}

// flush is the coalescer's flusher goroutine: woken on an idle wire, it
// ships the pending batch, then whatever gathered behind that frame while it
// was in flight, until nothing is pending. Each batch it takes leaves the
// last one's slices behind as the next pending batch, so a steady trickle of
// small frames allocates none. It exits when Close closes wake.
func (co *coalescer) flush() {
	defer co.c.flushers.Done()
	var b batch
	for range co.wake {
		for {
			co.mu.Lock()
			b = co.take(b)
			co.inFlight = len(b.futures) > 0
			co.mu.Unlock()
			if !co.inFlight {
				break
			}
			co.ship(b, &co.c.flushIdle)
			b = b.reset()
		}
	}
}

func (co *coalescer) flushAfterLinger() {
	co.mu.Lock()
	b := co.take(batch{})
	co.mu.Unlock()
	co.ship(b, &co.c.flushLinger)
}

// close fails what is still pending with ErrClientClosed, turns away later
// adds, and lets the flusher exit once its frame in flight has returned.
func (co *coalescer) close() {
	co.mu.Lock()
	co.closed = true
	b := co.take(batch{})
	close(co.wake)
	co.mu.Unlock()
	if len(b.futures) > 0 {
		co.c.flushClose.Add(1)
	}
	for _, f := range b.futures {
		co.c.resolve(f, nil, ErrClientClosed)
	}
}

// resolve completes one coalesced future and returns the window slot Go
// acquired for it.
func (c *Client) resolve(f *Future, result any, err error) {
	f.result, f.err = result, err
	close(f.done)
	<-c.window
}

// ship sends a taken batch, if it holds anything, as one frame flushed for
// reason why, and resolves its futures.
func (co *coalescer) ship(b batch, why *atomic.Uint64) {
	if len(b.futures) == 0 {
		return
	}
	c := co.c
	why.Add(1)
	c.coalFlushes.Add(1)
	c.coalEvents.Add(uint64(len(b.futures)))
	fr := frame{to: co.to, events: b.events, cached: b.cached, res: make([]BatchResult, len(b.futures))}
	c.submitFrame(fr)
	for i, f := range b.futures {
		c.resolve(f, fr.res[i].Result.Any(), fr.res[i].Err)
	}
}

// coalescerFor returns the per-node coalescer, starting it on first use; nil
// means the client is closed.
func (c *Client) coalescerFor(to transport.NodeID) *coalescer {
	c.coalMu.Lock()
	defer c.coalMu.Unlock()
	if c.coals == nil {
		return nil
	}
	co, ok := c.coals[to]
	if !ok {
		co = &coalescer{c: c, to: to, wake: make(chan struct{}, 1)}
		c.coals[to] = co
		c.flushers.Add(1)
		go co.flush()
	}
	return co
}
