package core

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/clock"
	"aeon/internal/cluster"
	"aeon/internal/metrics"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// countingReplicator is a Replicator whose log is always caught up; it
// counts the pulls.
type countingReplicator struct {
	Replicator
	catchUps int
}

func (c *countingReplicator) CatchUp() error { c.catchUps++; return nil }

// TestFrameChainsTimestamps pins the frame's clock discipline: event i's end
// is event i+1's start, so a frame of k events records exactly k latency
// samples that tile — and therefore sum to no more than — the frame's wall
// time; and a single Submit, the frame of one, still records its sample.
func TestFrameChainsTimestamps(t *testing.T) {
	w := newFanWorld(t, 1, 8, transport.NullNetwork{}, 1)
	rt := w.rt
	const k = 32
	wallStart, clockStart := time.Now(), clock.Now()
	f := rt.BeginFrame()
	for i := 0; i < k; i++ {
		target, method := w.leaves[i%len(w.leaves)], "touch"
		if i%4 == 0 {
			target, method = w.hubs[0], "fan"
		}
		if _, _, local, err := f.Run(target, method, nil); err != nil || !local {
			t.Fatalf("event %d: local=%v err=%v", i, local, err)
		}
	}
	wall := time.Since(wallStart)
	if got := rt.Latency.Count(); got != k {
		t.Fatalf("a frame of %d events recorded %d latency samples", k, got)
	}
	if f.Ran() != k || rt.Completed() != k {
		t.Fatalf("frame ran %d events, runtime completed %d; want %d", f.Ran(), rt.Completed(), k)
	}
	if sum := rt.Latency.Sum(); sum <= 0 || sum > wall {
		t.Fatalf("the frame's latency samples sum to %v over a wall time of %v; chained samples cannot overlap", sum, wall)
	}
	if sum, span := rt.Latency.Sum(), f.Clock().Sub(clockStart); sum > span {
		t.Fatalf("samples sum to %v but the frame's own clock spans %v", sum, span)
	}

	if _, err := rt.Submit(w.leaves[0], "touch"); err != nil {
		t.Fatal(err)
	}
	if got := rt.Latency.Count(); got != k+1 {
		t.Fatalf("a single Submit after the frame left %d samples; want %d", got, k+1)
	}
}

// TestFrameReportsNonLocalAndCatchesUpOnce pins what a frame shares besides
// the clock. An event sequenced on a server another process embodies is
// neither executed nor forwarded — Run names the host and the caller
// forwards — and leaves no latency sample; unknown targets pull the
// mutation log once per frame, not once each, and fail typed per event.
func TestFrameReportsNonLocalAndCatchesUpOnce(t *testing.T) {
	w := newFanWorld(t, 1, 2, transport.NullNetwork{}, 2)
	rt := w.rt
	remoteSrv := rt.Cluster().Servers()[1].ID()
	away, err := rt.CreateContextOn(remoteSrv, "Leaf")
	if err != nil {
		t.Fatal(err)
	}
	forwards := 0
	rt.SetRemote(func(s cluster.ServerID) bool { return s != remoteSrv },
		func(cluster.ServerID, ownership.ID, string, []schema.Value) (schema.Value, error) {
			forwards++
			return schema.Of("forwarded"), nil
		})
	rep := &countingReplicator{}
	rt.SetReplicator(rep)

	f := rt.BeginFrame()
	begun := f.Clock()
	if _, host, local, err := f.Run(away, "touch", nil); err != nil || local || host != remoteSrv {
		t.Fatalf("event on another process's server: host=%v local=%v err=%v; want host %v, not local", host, local, err, remoteSrv)
	}
	if forwards != 0 || f.Ran() != 0 || rt.Latency.Count() != 0 || f.Clock() != begun {
		t.Fatalf("a non-local event was forwarded (%d), ran (%d), sampled (%d) or read the clock", forwards, f.Ran(), rt.Latency.Count())
	}
	for i := 0; i < 3; i++ {
		_, host, local, err := f.Run(ownership.ID(9000+i), "touch", nil)
		if !errors.Is(err, ErrUnknownContext) || !local || host != 0 {
			t.Fatalf("unknown target %d: host=%v local=%v err=%v; want ErrUnknownContext, final", i, host, local, err)
		}
	}
	if rep.catchUps != 1 {
		t.Fatalf("three unknown targets in one frame pulled the log %d times; want once", rep.catchUps)
	}
	if _, _, local, err := f.Run(w.leaves[0], "touch", nil); err != nil || !local || f.Ran() != 1 {
		t.Fatalf("local event after the failures: local=%v err=%v ran=%d", local, err, f.Ran())
	}

	// Submit — the frame of one — forwards what Run only reports, and the
	// forwarded event keeps its sample.
	if res, err := rt.Submit(away, "touch"); err != nil || res != "forwarded" || forwards != 1 {
		t.Fatalf("Submit of a non-local event: res=%v err=%v forwards=%d", res, err, forwards)
	}
	if got := rt.Latency.Count(); got != 2 {
		t.Fatalf("latency samples = %d; want 2 (one local event, one forwarded Submit)", got)
	}
	if _, err := rt.Submit(ownership.ID(9100), "touch"); !errors.Is(err, ErrUnknownContext) || rep.catchUps != 2 {
		t.Fatalf("Submit of an unknown target: err=%v catchUps=%d; want ErrUnknownContext after one more pull", err, rep.catchUps)
	}
}

// TestFrameEndObservesOncePerFrame pins what a frame feeds RecentLatency:
// nothing per event, and at End one observation, the mean latency of the
// events it ran — exact on a fresh runtime, where an empty stripe stores its
// first observation as it is. A second End changes nothing, Completed is the
// latency histogram's count, and a single Submit, the frame of one, feeds
// the EWMA its own sample.
func TestFrameEndObservesOncePerFrame(t *testing.T) {
	w := newFanWorld(t, 1, 8, transport.NullNetwork{}, 1)
	rt := w.rt
	const k = 16
	f := rt.BeginFrame()
	begin := f.Clock()
	for i := 0; i < k; i++ {
		if _, _, _, err := f.Run(w.leaves[i%len(w.leaves)], "touch", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.RecentLatency(); got != 0 {
		t.Fatalf("RecentLatency = %v before End; the events fed the EWMA themselves", got)
	}
	f.End()
	want := f.Clock().Sub(begin) / k
	if got := rt.RecentLatency(); got != want {
		t.Fatalf("RecentLatency = %v after End; want the frame's mean event latency %v", got, want)
	}
	f.End()
	if got := rt.RecentLatency(); got != want || f.ev != nil {
		t.Fatalf("after a second End: RecentLatency = %v (want %v), event record still held: %v", got, want, f.ev != nil)
	}
	if rt.Completed() != k || rt.Latency.Count() != k {
		t.Fatalf("Completed = %d, Latency.Count = %d; want %d", rt.Completed(), rt.Latency.Count(), k)
	}

	single := newFanWorld(t, 1, 1, transport.NullNetwork{}, 1)
	one := single.rt
	if _, err := one.Submit(single.leaves[0], "touch"); err != nil {
		t.Fatal(err)
	}
	if got, sample := one.RecentLatency(), one.Latency.Sum(); got != sample || one.Completed() != 1 {
		t.Fatalf("a single Submit: RecentLatency = %v, its sample %v, Completed = %d", got, sample, one.Completed())
	}
}

// TestFrameEWMASpreadsStripes: equal-sized frames end on event IDs a fixed
// stride apart, and 64 frames of 96 events must still spread their
// observations over at least half of the EWMA's 64 stripes (taken from the
// IDs' low bits, they would land on 2).
func TestFrameEWMASpreadsStripes(t *testing.T) {
	w := newFanWorld(t, 1, 8, transport.NullNetwork{}, 1)
	for i := 0; i < 64; i++ {
		f := w.rt.BeginFrame()
		for j := 0; j < 96; j++ {
			if _, _, _, err := f.Run(w.leaves[j%len(w.leaves)], "touch", nil); err != nil {
				t.Fatal(err)
			}
		}
		f.End()
	}
	if n := occupiedStripes(&w.rt.ewma); n < 32 {
		t.Fatalf("64 frames of 96 events observed into %d of 64 EWMA stripes; want ≥ 32", n)
	}
}

// occupiedStripes counts the stripes of e holding an observation. They are
// unexported; reflect reads them rather than the metrics API growing a
// method for one test.
func occupiedStripes(e *metrics.StripedEWMA) int {
	stripes := reflect.ValueOf(e).Elem().FieldByName("stripes")
	n := 0
	for i := 0; i < stripes.Len(); i++ {
		if (*atomic.Int64)(stripes.Index(i).FieldByName("ns").Addr().UnsafePointer()).Load() != 0 {
			n++
		}
	}
	return n
}

// recordSeen is an event record as a top-level handler found it on entry.
type recordSeen struct {
	ev         *event
	crabs      int32
	forked     bool
	held, subs int
}

// recordSchema is the event-record fixture. Parent.crab dispatches a touch
// at args[0] and crabs into the child args[1]; Parent.through calls the
// child args[0] synchronously; Parent.note does nothing else. All three log
// their event's record on entry; Child.touch counts.
func recordSchema(t *testing.T, log *[]recordSeen) *schema.Schema {
	t.Helper()
	s := schema.New()
	parent := s.MustDeclareClass("Parent", nil)
	child := s.MustDeclareClass("Child", func() any { return new(int) })
	child.MustDeclareMethod("touch", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		*call.State().(*int)++
		return schema.Value{}, nil
	})
	note := func(call schema.Call) {
		ev := call.(*callEnv).ev
		*log = append(*log, recordSeen{ev, ev.crabs.Load(), ev.forked, len(ev.held), len(ev.subs)})
	}
	parent.MustDeclareMethod("crab", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		note(call)
		call.Dispatch(args[0].ID(), "touch")
		return schema.Value{}, call.Crab(args[1].ID(), "touch")
	}, schema.MayCall("Child", "touch"))
	parent.MustDeclareMethod("through", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		note(call)
		return call.Sync(args[0].ID(), "touch")
	}, schema.MayCall("Child", "touch"))
	parent.MustDeclareMethod("note", func(call schema.Call, _ []schema.Value) (schema.Value, error) {
		note(call)
		return schema.Value{}, nil
	})
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFrameReusesEventRecord runs three events in one frame, and so in one
// event record: the first dispatches a sub-event and crabs into a child, the
// second runs on an unrelated context, the third calls through the context
// the first crabbed. Each later event must find the record as a fresh one —
// no crab count, not forked, holding only its own target, no sub-events —
// so the sub-event runs exactly once and the third event is not refused as
// crabbed; and once the frame ends no lock it touched is held.
func TestFrameReusesEventRecord(t *testing.T) {
	var log []recordSeen
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, err := New(recordSchema(t, &log), ownership.NewGraph(), cl, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	create := func(class string, owners ...ownership.ID) ownership.ID {
		id, err := rt.CreateContext(class, owners...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	p, u, k := create("Parent"), create("Parent"), create("Child")
	c := create("Child", p)

	f := rt.BeginFrame()
	for i, ev := range []struct {
		target ownership.ID
		method string
		args   []schema.Value
	}{{p, "crab", []schema.Value{schema.ID(k), schema.ID(c)}}, {u, "note", nil}, {p, "through", []schema.Value{schema.ID(c)}}} {
		if _, _, _, err := f.Run(ev.target, ev.method, ev.args); err != nil {
			t.Fatalf("event %d (%s): %v", i+1, ev.method, err)
		}
	}
	record := f.ev
	f.End()
	rt.Close() // waits for the sub-event

	if len(log) != 3 {
		t.Fatalf("%d handlers logged; want 3", len(log))
	}
	for i, seen := range log {
		if seen.ev != record {
			t.Fatalf("event %d ran in another record than the frame's", i+1)
		}
		if i > 0 && (seen.crabs != 0 || seen.forked || seen.held != 1 || seen.subs != 0) {
			t.Fatalf("event %d found the record with crabs=%d forked=%v held=%d subs=%d; want a fresh one",
				i+1, seen.crabs, seen.forked, seen.held, seen.subs)
		}
	}
	for id, want := range map[ownership.ID]int{k: 1, c: 2} {
		ctx, err := rt.Context(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := *ctx.State().(*int); n != want {
			t.Fatalf("%v was touched %d times; want %d", id, n, want)
		}
	}
	for _, id := range []ownership.ID{p, u, k, c} {
		ctx, err := rt.Context(id)
		if err != nil {
			t.Fatal(err)
		}
		if w := ctx.lock.thin.Load(); w != 0 {
			t.Fatalf("%v's lock word reads %#x after the frame ended; want 0", id, w)
		}
	}
}
