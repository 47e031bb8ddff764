package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aeon/internal/ingress"
)

// callFunc is one closed-loop call through the external SDK: it submits ops
// and reports each one's outcome in errs. goFunc issues one future. Tests
// substitute fakes.
type callFunc func(ops []*op, errs []error)
type goFunc func(o *op) waiter

type waiter interface {
	Wait() (any, error)
}

// submitOne is a synchronous Client.Submit of one event.
func submitOne(c *ingress.Client, o *op) error {
	_, err := c.Submit(o.Target, o.Method, o.Args...)
	return err
}

// clientSubmit is the RPC callFunc: one submitOne per call.
func clientSubmit(c *ingress.Client) callFunc {
	return func(ops []*op, errs []error) { errs[0] = submitOne(c, ops[0]) }
}

// clientSubmitBatch returns a callFunc doing one Client.SubmitBatch of all
// its ops. Each caller needs its own: the item buffer is reused.
func clientSubmitBatch(c *ingress.Client) callFunc {
	var items []ingress.BatchItem
	return func(ops []*op, errs []error) {
		items = items[:0]
		for _, o := range ops {
			items = append(items, ingress.BatchItem{Target: o.Target, Method: o.Method, Args: o.Args})
		}
		for i, r := range c.SubmitBatch(items) {
			errs[i] = r.Err
		}
	}
}

func clientGo(c *ingress.Client) goFunc {
	return func(o *op) waiter { return c.Go(o.Target, o.Method, o.Args...) }
}

// resSnap is a process resource snapshot taken at phase boundaries only
// (ReadMemStats stops the world).
type resSnap struct {
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func snapResources() resSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resSnap{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
	}
}

type phaseKind int

const (
	phaseSat   phaseKind = iota // closed loop, SubmitBatch: rates and per-event costs
	phasePaced                  // open loop, Go futures: latency
	phaseRPC                    // closed loop, Submit: both
	phaseSetup                  // one timed set-up of a throw-away fleet
)

// phaseResult is what one slice measured.
type phaseResult struct {
	kind    phaseKind
	sent    int64
	failed  int64
	elapsed time.Duration
	before  resSnap
	after   resSnap
	latUS   []float64 // ascending; paced and RPC slices only
	overSLO int
	backlog int64 // paced: outstanding at end − outstanding at midpoint
	dropped int   // latency samples past the recorder's capacity

	// refUS is the reference kernel's time beside the slice (the mean of the
	// timings before and after it); steady says the two agreed.
	refUS  float64
	steady bool
	// Latency quantiles, kept when latUS is dropped.
	p50, p90, p99, p999 float64
	samples             int
}

func (p *phaseResult) ok() int64 { return p.sent - p.failed }

// scale converts a time measured beside this slice to the reference core.
func (p *phaseResult) scale() float64 { return calibRefUS / p.refUS }

func (p *phaseResult) eps() float64 { return float64(p.ok()) / p.elapsed.Seconds() }

func (p *phaseResult) cpuUSPerEvent() float64 {
	return float64((p.after.cpu - p.before.cpu).Microseconds()) / float64(p.ok())
}

func (p *phaseResult) allocsPerEvent() float64 {
	return float64(p.after.mallocs-p.before.mallocs) / float64(p.ok())
}

func (p *phaseResult) allocBytesPerEvent() float64 {
	return float64(p.after.bytes-p.before.bytes) / float64(p.ok())
}

// okRatio is the share of the slice's events that succeeded within the SLO.
func (p *phaseResult) okRatio() float64 { return 1 - float64(p.overSLO)/float64(p.sent) }

// inflight is one issued future on its way from the issuer to the collector.
type inflight struct {
	w   waiter
	due int64 // ns since loadgen.base at which the event was due
	idx uint32
}

// loadgen drives one fleet from at most two goroutines at a time: the
// closed-loop callers, or one issuer and one collector.
type loadgen struct {
	pool    []op
	cursor  int // next pool index; owned by whichever slice is running
	base    time.Time
	tally   *tally
	callers int
	sloUS   float64

	lat       *samples   // paced latency recorder, reused per slice
	callerLat []*samples // RPC: one per caller
	// Issuer-side samples over all paced slices (1 call in issueSampleEvery).
	issueNS *samples // time inside Client.Go
	lateNS  *samples // how late the issuer ran against the schedule
}

const issueSampleEvery = 8

func newLoadgen(pool []op, entities, callers int, sloUS float64, pacedCap, rpcCap int) *loadgen {
	g := &loadgen{
		pool:    pool,
		base:    time.Now(),
		tally:   newTally(entities),
		callers: callers,
		sloUS:   sloUS,
		issueNS: newSamples(1 << 18),
		lateNS:  newSamples(1 << 18),
	}
	if pacedCap > 0 {
		g.lat = newSamples(pacedCap)
	}
	for k := 0; k < callers && rpcCap > 0; k++ {
		g.callerLat = append(g.callerLat, newSamples(rpcCap))
	}
	return g
}

func (g *loadgen) nextOp() (*op, uint32) {
	idx := uint32(g.cursor & (len(g.pool) - 1))
	g.cursor++
	return &g.pool[idx], idx
}

// collect resolves futures in issue order, timing each from its due
// instant. One collector goroutine per phase owns the tally while it runs.
func (g *loadgen) collect(ch <-chan inflight, lat *samples, res *phaseResult, completed *atomic.Int64, done chan<- struct{}) {
	for it := range ch {
		_, err := it.w.Wait()
		if err != nil {
			res.failed++
		} else if lat != nil {
			lat.add(time.Since(g.base).Nanoseconds() - it.due)
		}
		g.tally.record(&g.pool[it.idx], err)
		completed.Add(1)
	}
	close(done)
}

// schedule returns the due instants (ns after the phase start) of an
// open-loop phase: n = rate·dur events, evenly spaced.
func schedule(rate int, dur time.Duration) []int64 {
	n := int(float64(rate) * dur.Seconds())
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(float64(i) * 1e9 / float64(rate))
	}
	return due
}

// runPaced issues on a fixed schedule regardless of completions (open
// loop). Every event is timed from the instant it was due, so a stall
// charges the events queued behind it, and the issuer's own lateness is
// sampled beside it.
func (g *loadgen) runPaced(submit goFunc, window int, due []int64) phaseResult {
	res := phaseResult{kind: phasePaced}
	g.lat.reset()
	ch := make(chan inflight, window+64)
	done := make(chan struct{})
	var completed atomic.Int64
	go g.collect(ch, g.lat, &res, &completed, done)
	res.before = snapResources()
	start := time.Now()
	origin := start.Sub(g.base).Nanoseconds()
	var backlogMid int64
	n := len(due)
	for i := 0; i < n; {
		now := time.Since(start).Nanoseconds()
		if due[i] > now {
			// Nothing due. The sandbox's timer floor (≈1.1 ms for any
			// sleep) makes this a burst generator; see timer_floor_us.
			time.Sleep(time.Duration(due[i] - now))
			continue
		}
		for ; i < n && due[i] <= now; i++ {
			o, idx := g.nextOp()
			it := inflight{due: origin + due[i], idx: idx}
			if i%issueSampleEvery == 0 {
				t0 := time.Since(start).Nanoseconds()
				it.w = submit(o)
				g.issueNS.add(time.Since(start).Nanoseconds() - t0)
				g.lateNS.add(t0 - due[i])
			} else {
				it.w = submit(o)
			}
			ch <- it
			res.sent++
			if i == n/2 {
				backlogMid = res.sent - completed.Load()
			}
		}
	}
	res.backlog = res.sent - completed.Load() - backlogMid
	close(ch)
	<-done
	res.elapsed = time.Since(start)
	res.after = snapResources()
	g.finishLatency(&res, g.lat)
	return res
}

// runClosed runs g.callers closed-loop callers for dur. Each call submits
// batch consecutive ops of the pool through its caller's callFunc; with a
// batch of one (RPC) every call is timed from its start.
func (g *loadgen) runClosed(kind phaseKind, calls []callFunc, batch int, dur time.Duration) phaseResult {
	res := phaseResult{kind: kind}
	tallies := make([]*tally, g.callers)
	for k := range tallies {
		tallies[k] = newTally(len(g.tally.acked))
		if kind == phaseRPC {
			g.callerLat[k].reset()
		}
	}
	first := g.cursor
	var wg sync.WaitGroup
	res.before = snapResources()
	start := time.Now()
	for k := 0; k < g.callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			call, tl := calls[k], tallies[k]
			mask := len(g.pool) - 1
			ops, errs := make([]*op, batch), make([]error, batch)
			for i := first + k*batch; ; i += g.callers * batch {
				for j := range ops {
					ops[j] = &g.pool[(i+j)&mask]
				}
				t0 := time.Now()
				call(ops, errs)
				t1 := time.Now()
				if kind == phaseRPC && errs[0] == nil {
					g.callerLat[k].add(t1.Sub(t0).Nanoseconds())
				}
				for j, o := range ops {
					tl.record(o, errs[j])
				}
				if t1.Sub(start) >= dur {
					return
				}
			}
		}(k)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.after = snapResources()
	merged := &samples{}
	for k, tl := range tallies {
		res.sent += tl.attempted
		res.failed += tl.fails
		g.tally.merge(tl)
		if kind == phaseRPC {
			merged.ns = append(merged.ns, g.callerLat[k].ns...)
			merged.dropped += g.callerLat[k].dropped
		}
	}
	g.cursor = first + int(res.sent)
	if kind == phaseRPC {
		g.finishLatency(&res, merged)
	}
	return res
}

// finishLatency sorts a slice's samples, takes its quantiles and counts SLO
// misses: an event that failed counts as missing the limit.
func (g *loadgen) finishLatency(res *phaseResult, lat *samples) {
	res.latUS = lat.sortedUS()
	res.samples = len(res.latUS)
	res.dropped = lat.dropped
	res.overSLO = countAbove(res.latUS, g.sloUS) + int(res.failed)
	res.p50, res.p90 = percentile(res.latUS, 0.50), percentile(res.latUS, 0.90)
	res.p99, res.p999 = percentile(res.latUS, 0.99), percentile(res.latUS, 0.999)
}

// timerFloorUS measures what a 100 µs sleep really costs here: the floor
// under the coalescer's linger and under any paced generator.
func timerFloorUS() float64 {
	const n = 50
	vs := make([]float64, n)
	for i := range vs {
		t0 := time.Now()
		time.Sleep(100 * time.Microsecond)
		vs[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(vs)
}

var calibSink uint64

// calibrate times the reference kernel — a fixed xorshift chain, pure
// register arithmetic — and returns the faster of two goes in µs. The host's
// core runs at one of two clocks about 25 % apart and changes between them
// every few seconds; the kernel tracks that, so it is timed beside every
// slice and the slice's times are scaled by it.
func calibrate() float64 {
	best := math.Inf(1)
	for r := 0; r < 2; r++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 500_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/1e3)
		calibSink += x
	}
	return best
}
