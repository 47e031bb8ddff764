package ingress

import (
	"testing"

	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// TestBatchResponseConfirmingRoutesStoresNothing pins the route-cache write
// policy: a batch response whose hosts equal the cached routes — nearly every
// response of a steady fleet — performs no sync.Map store (each store
// allocates an entry). The first response of 64 events learns 64 routes; an
// identical second one must cost only its decode, and a response that moves
// one target must still repair that route.
func TestBatchResponseConfirmingRoutesStoresNothing(t *testing.T) {
	const n = 64
	c := &Client{}
	events := make([]schema.BatchEvent, n)
	resp := schema.SubmitBatchResp{Outcomes: make([]schema.BatchOutcome, n)}
	for i := range events {
		// IDs above 255 so that boxing one as a map key is a real allocation.
		events[i].Target = ownership.ID(1000 + i)
		resp.Outcomes[i].Host = int64(1 + i%2)
	}
	frame := func() transport.Message {
		payload, err := resp.MarshalWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		return transport.Message{Payload: payload}
	}
	res := make([]BatchResult, n)
	raw := frame()
	cold := testing.AllocsPerRun(1, func() {
		c = &Client{}
		c.applyBatchResp(1, events, res, 0, n, raw)
	})
	warm := testing.AllocsPerRun(100, func() { c.applyBatchResp(1, events, res, 0, n, raw) })
	if cold < n {
		t.Fatalf("learning %d routes made %v allocations; the fixture no longer measures stores", n, cold)
	}
	if warm > cold-n {
		t.Fatalf("a response confirming %d cached routes made %v allocations (learning them: %v); want no store", n, warm, cold)
	}
	if n := testing.AllocsPerRun(100, func() { c.learn(events[0].Target, resp.Outcomes[0].Host) }); n != 0 {
		t.Fatalf("learn of an unchanged route made %v allocations; want 0", n)
	}

	resp.Outcomes[7].Host = 9
	c.applyBatchResp(1, events, res, 0, n, frame())
	if got, ok := c.Route(events[7].Target); !ok || got != 9 {
		t.Fatalf("route of %v = %v (ok=%v) after a response naming host 9", events[7].Target, got, ok)
	}
	if got, _ := c.Route(events[8].Target); got != 1 {
		t.Fatalf("route of %v = %v; an unrelated outcome moved it", events[8].Target, got)
	}
}
