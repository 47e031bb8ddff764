package metrics

import (
	"sync/atomic"
	"time"
)

// stripeCount is the number of cache-line-padded stripes a StripedEWMA fans
// writes across, one picked by the top 6 bits of a hash.
const stripeCount = 64

// StripedEWMA is an exponentially weighted moving average whose updates fan
// out across cache-line-padded stripes; Value averages the occupied stripes
// on read. The stripe is a hash of the hint, so hints a fixed stride apart
// (the last event IDs of equal-sized frames) still spread over the stripes.
// Each stripe then sees every stripeCount-th observation — callers should
// raise their smoothing factor accordingly (alpha' = 1-(1-alpha)^stripeCount
// preserves a single EWMA's time constant).
type StripedEWMA struct {
	stripes [stripeCount]ewmaStripe
}

type ewmaStripe struct {
	ns atomic.Int64
	_  [56]byte // pad to a cache line
}

// ObserveAt folds one observation into the stripe selected by hint; an empty
// stripe takes it as it is. The hash multiplies twice: one multiply alone
// turns a fixed stride into a fixed rotation, which for many strides (96
// among them) visits fewer than half the stripes.
func (e *StripedEWMA) ObserveAt(hint uint64, d time.Duration, alpha float64) {
	h := hint * 0x9E3779B97F4A7C15
	st := &e.stripes[(h^h>>32)*0x9E3779B97F4A7C15>>58]
	for {
		old := st.ns.Load()
		var next int64
		if old == 0 {
			next = d.Nanoseconds()
		} else {
			next = int64((1-alpha)*float64(old) + alpha*float64(d.Nanoseconds()))
		}
		if st.ns.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the mean of the occupied stripes (zero when nothing has
// been observed).
func (e *StripedEWMA) Value() time.Duration {
	var sum, n int64
	for i := range e.stripes {
		if v := e.stripes[i].ns.Load(); v != 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / n)
}
