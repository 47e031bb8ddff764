package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should be all zeros")
	}
	h.Record(1 * time.Millisecond)
	h.Record(2 * time.Millisecond)
	h.Record(3 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); m != 2*time.Millisecond {
		t.Fatalf("mean = %v; want 2ms", m)
	}
	if mx := h.Max(); mx != 3*time.Millisecond {
		t.Fatalf("max = %v; want 3ms", mx)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		// Log-bucketed: accept 10% relative error.
		lo := time.Duration(float64(tc.want) * 0.9)
		hi := time.Duration(float64(tc.want) * 1.1)
		if got < lo || got > hi {
			t.Errorf("q%.2f = %v; want within [%v, %v]", tc.q, got, lo, hi)
		}
	}
}

func TestHistogramFractionAbove(t *testing.T) {
	var h Histogram
	for i := 0; i < 80; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		h.Record(time.Second)
	}
	f := h.FractionAbove(10 * time.Millisecond)
	if f < 0.19 || f > 0.21 {
		t.Fatalf("fraction above 10ms = %v; want ≈0.2", f)
	}
	if f := h.FractionAbove(2 * time.Second); f != 0 {
		t.Fatalf("fraction above 2s = %v; want 0", f)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i%50+1) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d; want 8000", h.Count())
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 200; i++ {
			h.Record(time.Duration(rng.Intn(1_000_000)+1) * time.Microsecond)
		}
		prev := time.Duration(0)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotString(t *testing.T) {
	var h Histogram
	h.Record(5 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if str := s.String(); str == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d; want 5", c.Value())
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(100 * time.Millisecond)
	base := ts.Start()
	ts.ObserveAt(base.Add(10*time.Millisecond), 1)
	ts.ObserveAt(base.Add(20*time.Millisecond), 3)
	ts.ObserveAt(base.Add(250*time.Millisecond), 10)

	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %d; want 3 (including gap window)", len(pts))
	}
	if pts[0].Count != 2 || pts[0].Mean != 2 || pts[0].Sum != 4 {
		t.Fatalf("window 0 = %+v", pts[0])
	}
	if pts[0].Rate != 20 { // 2 samples / 0.1s
		t.Fatalf("window 0 rate = %v; want 20", pts[0].Rate)
	}
	if pts[1].Count != 0 {
		t.Fatalf("gap window = %+v; want empty", pts[1])
	}
	if pts[2].Count != 1 || pts[2].Mean != 10 {
		t.Fatalf("window 2 = %+v", pts[2])
	}
	if pts[2].Offset != 200*time.Millisecond {
		t.Fatalf("window 2 offset = %v", pts[2].Offset)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	if pts := ts.Points(); pts != nil {
		t.Fatalf("points = %v; want nil", pts)
	}
}

func TestTimeSeriesConcurrent(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ts.Observe(1)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, p := range ts.Points() {
		total += p.Count
	}
	if total != 2000 {
		t.Fatalf("total = %d; want 2000", total)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// bucketValue(bucketIndex(d)) should be within one sub-bucket of d.
	for _, d := range []time.Duration{
		time.Microsecond, 10 * time.Microsecond, time.Millisecond,
		17 * time.Millisecond, time.Second, 90 * time.Second,
	} {
		idx := bucketIndex(d)
		v := bucketValue(idx)
		ratio := float64(v) / float64(d)
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("round trip %v → bucket %d → %v (ratio %.3f)", d, idx, v, ratio)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if v := empty.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %v; want 0", q, v)
		}
	}
	if empty.Mean() != 0 || empty.Sum() != 0 {
		t.Fatalf("empty Mean/Sum = %v/%v; want 0", empty.Mean(), empty.Sum())
	}

	var h Histogram
	h.Record(time.Millisecond)
	h.Record(10 * time.Millisecond)
	// Out-of-range and NaN quantiles clamp instead of indexing a garbage
	// rank (a negative q used to convert to a huge uint64 and return Max).
	lo, hi := h.Quantile(0), h.Quantile(1)
	if v := h.Quantile(-0.5); v != lo {
		t.Fatalf("Quantile(-0.5) = %v; want clamp to Quantile(0) = %v", v, lo)
	}
	if v := h.Quantile(1.5); v != hi {
		t.Fatalf("Quantile(1.5) = %v; want clamp to Quantile(1) = %v", v, hi)
	}
	if v := h.Quantile(math.NaN()); v != lo {
		t.Fatalf("Quantile(NaN) = %v; want clamp to Quantile(0) = %v", v, lo)
	}
	if s := h.Sum(); s != 11*time.Millisecond {
		t.Fatalf("Sum = %v; want 11ms", s)
	}
}

func TestSnapshotStringTailQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 500; i++ {
		h.Record(time.Millisecond)
	}
	h.Record(time.Second) // tail outlier: p999 must surface it, p99 must not
	s := h.Snapshot()
	if s.P999 < s.P99 {
		t.Fatalf("p999 = %v < p99 = %v", s.P999, s.P99)
	}
	if s.P999 < 500*time.Millisecond {
		t.Fatalf("p999 = %v; want the 1s outlier visible", s.P999)
	}
	str := s.String()
	for _, want := range []string{"p50=", "p99=", "p999="} {
		if !strings.Contains(str, want) {
			t.Fatalf("Snapshot.String() = %q; missing %s", str, want)
		}
	}
}

// bucketIndexLog is the bucket formula as it was written before the table:
// ⌊log2(µs)·16⌋, clamped.
func bucketIndexLog(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 1000 {
		return 0
	}
	return max(0, min(int(math.Log2(float64(ns)/1000.0)*bucketsPerOctave), bucketCount-1))
}

// TestBucketIndexMatchesLogarithm holds the table-driven bucketIndex to the
// logarithm it replaced: equal on a million log-uniform durations from 1 µs
// to 1000 s and at every octave boundary, monotone, clamped at both ends.
func TestBucketIndexMatchesLogarithm(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	lo, hi := math.Log(1e3), math.Log(1e12) // ns
	for i := 0; i < 1_000_000; i++ {
		d := time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
		if got, want := bucketIndex(d), bucketIndexLog(d); got != want {
			t.Fatalf("bucketIndex(%v) = %d; the logarithm says %d", d, got, want)
		}
	}
	for e := 0; e < 40; e++ { // 2^e µs exactly, and its neighbours
		for _, d := range []time.Duration{1000<<e - 1, 1000 << e, 1000<<e + 1} {
			if got, want := bucketIndex(d), bucketIndexLog(d); got != want {
				t.Fatalf("bucketIndex(%v) = %d at an octave boundary; the logarithm says %d", d, got, want)
			}
		}
	}
	prev := 0
	for ns := 1.0; ns < 4e18; ns *= 1.0007 { // finer than a sub-bucket (2^(1/16) ≈ 1.044)
		idx := bucketIndex(time.Duration(ns))
		if idx < prev || idx > prev+1 {
			t.Fatalf("bucketIndex(%v) = %d after %d: not monotone, or a bucket was skipped", time.Duration(ns), idx, prev)
		}
		prev = idx
	}
	if prev != bucketCount-1 {
		t.Fatalf("the sweep ended in bucket %d; want the last, %d", prev, bucketCount-1)
	}
	for _, d := range []time.Duration{math.MinInt64, -time.Second, 0, 999} {
		if got := bucketIndex(d); got != 0 {
			t.Fatalf("bucketIndex(%v) = %d; want 0", d, got)
		}
	}
	for _, d := range []time.Duration{bucketValue(bucketCount), time.Duration(math.MaxInt64)} {
		if got := bucketIndex(d); got != bucketCount-1 {
			t.Fatalf("bucketIndex(%v) = %d; want the last bucket", d, got)
		}
	}
}
