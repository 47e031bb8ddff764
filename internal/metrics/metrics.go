// Package metrics provides the measurement primitives the benchmark harness
// uses to regenerate the paper's figures: latency histograms with percentile
// queries, throughput counters, windowed time series (for the elasticity and
// migration experiments), and SLA accounting (Table 1).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram records durations in logarithmically spaced buckets from 1µs to
// ~17min and answers quantile queries. It is safe for concurrent use and
// allocation-free on the record path.
type Histogram struct {
	counts [bucketCount]atomic.Uint64
	total  atomic.Uint64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

const (
	// bucketCount covers 1µs..~17min with 16 sub-buckets per octave.
	bucketsPerOctave = 16
	octaves          = 30
	bucketCount      = bucketsPerOctave * octaves
)

// octaveSteps[k] is the mantissa (the float64's 52 fraction bits) of 2^(k/16),
// where sub-bucket k of every octave begins.
var octaveSteps = func() (steps [bucketsPerOctave]uint64) {
	for k := range steps {
		steps[k] = math.Float64bits(math.Exp2(float64(k)/bucketsPerOctave)) & (1<<52 - 1)
	}
	return steps
}()

// bucketIndex is ⌊log2(µs)·16⌋ without the logarithm: the float64's exponent
// is the octave, and its mantissa's rank among octaveSteps the sub-bucket.
func bucketIndex(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 1000 {
		return 0
	}
	bits := math.Float64bits(float64(ns) / 1000.0) // ≥ 1: no sign, exponent ≥ 0
	frac, k := bits&(1<<52-1), 0
	for step := bucketsPerOctave / 2; step > 0; step /= 2 {
		if frac >= octaveSteps[k+step] {
			k += step
		}
	}
	return min((int(bits>>52)-1023)*bucketsPerOctave+k, bucketCount-1)
}

func bucketValue(idx int) time.Duration {
	us := math.Exp2(float64(idx) / bucketsPerOctave)
	return time.Duration(us * 1000)
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketIndex(d)].Add(1)
	h.total.Add(1)
	h.sumNs.Add(d.Nanoseconds())
	for {
		cur := h.maxNs.Load()
		if d.Nanoseconds() <= cur || h.maxNs.CompareAndSwap(cur, d.Nanoseconds()) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Mean returns the mean observation.
func (h *Histogram) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / int64(n))
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Quantile returns the approximate q-quantile. q is clamped to [0,1]; an
// empty histogram answers 0 for every quantile. (Unclamped negative q would
// convert to a huge unsigned rank and always answer Max.)
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var cum uint64
	for i := 0; i < bucketCount; i++ {
		cum += h.counts[i].Load()
		if cum > rank {
			return bucketValue(i)
		}
	}
	return h.Max()
}

// FractionAbove returns the fraction of observations strictly above the
// threshold (used for SLA-violation accounting in Table 1). The threshold is
// resolved at bucket granularity.
func (h *Histogram) FractionAbove(threshold time.Duration) float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	idx := bucketIndex(threshold)
	var above uint64
	for i := idx + 1; i < bucketCount; i++ {
		above += h.counts[i].Load()
	}
	return float64(above) / float64(n)
}

// Snapshot summarizes the histogram.
type Snapshot struct {
	Count  uint64
	Mean   time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
	P999   time.Duration
	Max    time.Duration
	TookAt time.Time
}

// Snapshot captures the current distribution summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count:  h.Count(),
		Mean:   h.Mean(),
		P50:    h.Quantile(0.50),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
		Max:    h.Max(),
		TookAt: time.Now(),
	}
}

// String renders the snapshot compactly, always including p50/p99/p999.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p999=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.P999.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// Counter is a monotonically increasing event counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// TimeSeries accumulates per-window samples (e.g. events/s per second for
// Figure 8, or average latency per second for Figure 7a).
type TimeSeries struct {
	mu      sync.Mutex
	window  time.Duration
	start   time.Time
	buckets map[int]*seriesBucket
}

type seriesBucket struct {
	count int
	sum   float64
}

// NewTimeSeries creates a series with the given window size, anchored now.
func NewTimeSeries(window time.Duration) *TimeSeries {
	return &TimeSeries{
		window:  window,
		start:   time.Now(),
		buckets: make(map[int]*seriesBucket),
	}
}

// Observe adds a sample at the current time.
func (ts *TimeSeries) Observe(v float64) { ts.ObserveAt(time.Now(), v) }

// ObserveAt adds a sample at an explicit time.
func (ts *TimeSeries) ObserveAt(at time.Time, v float64) {
	idx := int(at.Sub(ts.start) / ts.window)
	if idx < 0 {
		idx = 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	b := ts.buckets[idx]
	if b == nil {
		b = &seriesBucket{}
		ts.buckets[idx] = b
	}
	b.count++
	b.sum += v
}

// Point is one window of a time series.
type Point struct {
	// Offset is the window start relative to series start.
	Offset time.Duration
	// Count is the number of samples in the window.
	Count int
	// Sum is the total of samples in the window.
	Sum float64
	// Mean is Sum/Count (0 when empty).
	Mean float64
	// Rate is Count divided by the window length in seconds.
	Rate float64
}

// Points returns the series in time order, including empty windows between
// the first and last occupied ones.
func (ts *TimeSeries) Points() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.buckets) == 0 {
		return nil
	}
	idxs := make([]int, 0, len(ts.buckets))
	for i := range ts.buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	first, last := idxs[0], idxs[len(idxs)-1]
	out := make([]Point, 0, last-first+1)
	winSec := ts.window.Seconds()
	for i := first; i <= last; i++ {
		p := Point{Offset: time.Duration(i) * ts.window}
		if b, ok := ts.buckets[i]; ok {
			p.Count = b.count
			p.Sum = b.sum
			if b.count > 0 {
				p.Mean = b.sum / float64(b.count)
			}
			p.Rate = float64(b.count) / winSec
		}
		out = append(out, p)
	}
	return out
}

// Window returns the configured window size.
func (ts *TimeSeries) Window() time.Duration { return ts.window }

// Start returns the series anchor time.
func (ts *TimeSeries) Start() time.Time { return ts.start }
