package metrics

import (
	"testing"
	"time"
)

// TestStripedEWMASpreadsStrides: 64 observations whose hints step by any
// fixed stride up to 256 — the last event IDs of equal-sized frames — land
// on at least half of the stripes. A single multiply puts them on 28 of 64
// at stride 96, and on 8 at stride 122.
func TestStripedEWMASpreadsStrides(t *testing.T) {
	for stride := uint64(1); stride <= 256; stride++ {
		var e StripedEWMA
		for i := uint64(1); i <= 64; i++ {
			e.ObserveAt(i*stride, time.Millisecond, 0.96)
		}
		n := 0
		for i := range e.stripes {
			if e.stripes[i].ns.Load() != 0 {
				n++
			}
		}
		if n < 32 {
			t.Fatalf("stride %d: 64 observations on %d of %d stripes; want ≥ 32", stride, n, stripeCount)
		}
	}
}
