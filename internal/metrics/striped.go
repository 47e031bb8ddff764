package metrics

import (
	"sync/atomic"
	"time"
)

// stripeCount is the number of independent histograms a StripedHistogram
// fans writes across. Power of two so stripe selection is a mask.
const stripeCount = 64

// StripedHistogram spreads Record calls over independent Histograms so the
// record path never contends on shared counters; queries merge the stripes
// on read. The zero value is ready to use. Use RecordAt with a well-spread
// hint (e.g. an event sequence number) so concurrent recorders land on
// different stripes.
type StripedHistogram struct {
	stripes [stripeCount]Histogram
	// recordCursor backs the hint-less Record; hot paths should prefer
	// RecordAt and avoid this shared counter.
	recordCursor atomic.Uint64
}

// RecordAt adds one observation to the stripe selected by hint.
func (s *StripedHistogram) RecordAt(hint uint64, d time.Duration) {
	s.stripes[hint&(stripeCount-1)].Record(d)
}

// Record adds one observation on a round-robin stripe. Prefer RecordAt on
// hot paths.
func (s *StripedHistogram) Record(d time.Duration) {
	s.RecordAt(s.recordCursor.Add(1), d)
}

// merged folds all stripes into one Histogram. The result is a consistent-
// enough view under concurrent recording: each stripe is read atomically
// per counter, exactly like a plain shared Histogram would be.
func (s *StripedHistogram) merged() *Histogram {
	var out Histogram
	var total uint64
	var sumNs, maxNs int64
	for i := range s.stripes {
		h := &s.stripes[i]
		for b := 0; b < bucketCount; b++ {
			if c := h.counts[b].Load(); c != 0 {
				out.counts[b].Add(c)
			}
		}
		total += h.total.Load()
		sumNs += h.sumNs.Load()
		if m := h.maxNs.Load(); m > maxNs {
			maxNs = m
		}
	}
	out.total.Store(total)
	out.sumNs.Store(sumNs)
	out.maxNs.Store(maxNs)
	return &out
}

// Count returns the number of observations across all stripes.
func (s *StripedHistogram) Count() uint64 {
	var n uint64
	for i := range s.stripes {
		n += s.stripes[i].total.Load()
	}
	return n
}

// Max returns the largest observation across all stripes.
func (s *StripedHistogram) Max() time.Duration { return s.merged().Max() }

// Sum returns the total of all observations across stripes.
func (s *StripedHistogram) Sum() time.Duration {
	var ns int64
	for i := range s.stripes {
		ns += s.stripes[i].sumNs.Load()
	}
	return time.Duration(ns)
}

// Quantile returns the approximate q-quantile of the merged distribution.
func (s *StripedHistogram) Quantile(q float64) time.Duration {
	return s.merged().Quantile(q)
}

// FractionAbove returns the merged fraction of observations strictly above
// the threshold.
func (s *StripedHistogram) FractionAbove(threshold time.Duration) float64 {
	return s.merged().FractionAbove(threshold)
}

// Snapshot captures the merged distribution summary.
func (s *StripedHistogram) Snapshot() Snapshot { return s.merged().Snapshot() }

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
