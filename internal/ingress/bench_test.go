package ingress_test

import (
	"testing"

	"aeon/internal/ingress"
	"aeon/internal/ownership"
)

// BenchmarkGoWait measures the coalesced async path over TCP loopback at its
// two ends. lone is an idle client — one Go().Wait() at a time, so every
// event finds the wire idle and ns/op is its round trip. saturated keeps
// Window futures in flight from one producer with a collector goroutine
// behind it; there frames must fill by themselves, so events/frame is
// reported beside ns/op.
func BenchmarkGoWait(b *testing.B) {
	deploy := func(b *testing.B, cfg ingress.Config) (*ingress.Client, ownership.ID) {
		d, mesh := deployTCP(b, 1)
		c := dial(b, mesh, d, cfg)
		acct := d.Top.Accounts[0][0]
		if _, err := c.Submit(acct, "deposit", 0); err != nil { // dial, learn the route
			b.Fatal(err)
		}
		return c, acct
	}

	b.Run("lone", func(b *testing.B) {
		c, target := deploy(b, ingress.Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Go(target, "deposit", 1).Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("saturated", func(b *testing.B) {
		c, target := deploy(b, ingress.Config{Window: 1024})
		futures := make(chan *ingress.Future, 1024) // the client's Window: the producer blocks in Go, not here
		done := make(chan error, 1)
		go func() {
			var first error
			for f := range futures {
				if _, err := f.Wait(); err != nil && first == nil {
					first = err
				}
			}
			done <- first
		}()
		before := c.CoalescerStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			futures <- c.Go(target, "deposit", 1)
		}
		close(futures)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		after := c.CoalescerStats()
		b.ReportMetric(float64(after.Events-before.Events)/float64(after.Flushes-before.Flushes), "events/frame")
	})
}
