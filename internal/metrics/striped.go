package metrics

import (
	"sync/atomic"
	"time"
)

// stripeCount is the number of cache-line-padded stripes a StripedCounter
// or StripedEWMA fans writes across. Power of two so stripe selection is a
// mask.
const stripeCount = 64

// StripedCounter is a monotonically increasing counter whose increments fan
// out across cache-line-padded stripes; Value sums them on read. Use IncAt
// with a well-spread hint on hot paths.
type StripedCounter struct {
	stripes [stripeCount]counterStripe
}

type counterStripe struct {
	v atomic.Uint64
	_ [56]byte // pad to a cache line
}

// IncAt increments the stripe selected by hint.
func (c *StripedCounter) IncAt(hint uint64) {
	c.stripes[hint&(stripeCount-1)].v.Add(1)
}

// Value returns the current total across stripes.
func (c *StripedCounter) Value() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].v.Load()
	}
	return n
}

// StripedEWMA is an exponentially weighted moving average whose updates fan
// out across cache-line-padded stripes; Value averages the occupied stripes
// on read. With hints spread uniformly (e.g. event sequence numbers), each
// stripe sees every stripeCount-th observation — callers should raise their
// smoothing factor accordingly (alpha' = 1-(1-alpha)^stripeCount preserves
// a single EWMA's time constant).
type StripedEWMA struct {
	stripes [stripeCount]ewmaStripe
}

type ewmaStripe struct {
	ns atomic.Int64
	_  [56]byte // pad to a cache line
}

// ObserveAt folds one observation into the stripe selected by hint.
func (e *StripedEWMA) ObserveAt(hint uint64, d time.Duration, alpha float64) {
	st := &e.stripes[hint&(stripeCount-1)]
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
