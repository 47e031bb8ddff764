package core

import (
	"errors"
	"testing"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
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
	wallStart, clockStart := time.Now(), Now()
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
	if f.Ran() != k || rt.Completed.Value() != k {
		t.Fatalf("frame ran %d events, runtime completed %d; want %d", f.Ran(), rt.Completed.Value(), k)
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
		func(cluster.ServerID, ownership.ID, string, []any) (any, error) { forwards++; return "forwarded", nil })
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
