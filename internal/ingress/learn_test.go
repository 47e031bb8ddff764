package ingress

import (
	"testing"
	"time"

	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// respFrame is a 64-event frame sent to node 1 and the response a node
// answers it with.
type respFrame struct {
	f    frame
	resp schema.SubmitBatchResp
}

func newRespFrame(n int, cached bool) *respFrame {
	rf := &respFrame{
		f: frame{
			to:     1,
			events: make([]BatchItem, n),
			cached: make([]bool, n),
			res:    make([]BatchResult, n),
		},
		resp: schema.SubmitBatchResp{Outcomes: make([]schema.BatchOutcome, n)},
	}
	for i := range rf.f.events {
		rf.f.events[i].Target = ownership.ID(1000 + i)
		rf.f.cached[i] = cached
		rf.resp.Outcomes[i].Host = 1
	}
	return rf
}

func (rf *respFrame) raw(t *testing.T) transport.Message {
	t.Helper()
	payload, err := rf.resp.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	return transport.Message{Payload: payload}
}

// applyWithCacheLocked runs applyBatchResp while the test holds the route
// cache's write lock: any lookup or store inside would block, so returning
// at all proves the response was applied without touching the cache.
func applyWithCacheLocked(t *testing.T, c *Client, f frame, raw transport.Message) {
	t.Helper()
	c.routeMu.Lock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.applyBatchResp(f, raw)
	}()
	select {
	case <-done:
		c.routeMu.Unlock()
	case <-time.After(5 * time.Second):
		c.routeMu.Unlock()
		<-done
		t.Fatal("applyBatchResp touched the route cache on a response that only confirms cached routes")
	}
}

// TestBatchResponseConfirmingRoutesStoresNothing pins the route-cache policy
// of the batch response path. Whether route found each event's node in the
// cache rides beside the event, so a response whose hosts equal the node the
// frame was sent to — nearly every response of a steady fleet — performs no
// cache lookup and no store: it costs only its decode through pooled
// scratch. The first response for un-cached targets stores each route once,
// and a response naming a different host than the frame was sent to repairs
// that entry and no other.
func TestBatchResponseConfirmingRoutesStoresNothing(t *testing.T) {
	const n = 64
	c := &Client{routes: make(map[ownership.ID]transport.NodeID)}

	// Cold: nothing cached, so route fell back to round-robin (cached false)
	// and the response's hosts are news.
	cold := newRespFrame(n, false)
	c.applyBatchResp(cold.f, cold.raw(t))
	if len(c.routes) != n {
		t.Fatalf("first response for %d un-cached targets left %d routes", n, len(c.routes))
	}
	for i := range cold.f.events {
		if got, ok := c.Route(cold.f.events[i].Target); !ok || got != 1 {
			t.Fatalf("route of %v = %v (ok=%v) after the first response; want 1", cold.f.events[i].Target, got, ok)
		}
	}

	// Warm: the next frame's route pass hits the cache for every event, and
	// the response confirms the node it was sent to.
	warm := newRespFrame(n, true)
	raw := warm.raw(t)
	applyWithCacheLocked(t, c, warm.f, raw)
	c.applyBatchResp(warm.f, raw) // fill the decode pool
	if allocs := testing.AllocsPerRun(100, func() { c.applyBatchResp(warm.f, raw) }); allocs > 2 {
		t.Fatalf("a response confirming %d cached routes made %v allocations; want its pooled decode only", n, allocs)
	}
	if len(c.routes) != n {
		t.Fatalf("confirming responses grew the cache to %d routes", len(c.routes))
	}

	// A cache hit that the response contradicts is repaired — that entry only.
	warm.resp.Outcomes[7].Host = 9
	c.applyBatchResp(warm.f, warm.raw(t))
	if got, ok := c.Route(warm.f.events[7].Target); !ok || got != 9 {
		t.Fatalf("route of %v = %v (ok=%v) after a response naming host 9", warm.f.events[7].Target, got, ok)
	}
	if got, _ := c.Route(warm.f.events[8].Target); got != 1 {
		t.Fatalf("route of %v = %v; an unrelated outcome moved it", warm.f.events[8].Target, got)
	}

	// The single-event path shares the policy.
	c.learn(warm.f.events[7].Target, 9, true, 9) // confirms: no write
	c.learn(warm.f.events[8].Target, 1, true, 2) // contradicts: repaired
	c.learn(ownership.ID(5000), 2, false, 2)     // round-robin guess: learned
	for id, want := range map[ownership.ID]transport.NodeID{
		warm.f.events[7].Target: 9, warm.f.events[8].Target: 2, 5000: 2,
	} {
		if got, ok := c.Route(id); !ok || got != want {
			t.Fatalf("route of %v = %v (ok=%v); want %v", id, got, ok, want)
		}
	}
}
