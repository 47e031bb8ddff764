package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks — the same rule as numpy's default —
// so a reported percentile carries all the digits of its neighbours instead
// of snapping to one sample. Zero samples give 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of vs without modifying it.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// minMax returns the extremes of vs (0, 0 when empty).
func minMax(vs []float64) (lo, hi float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// samples is a fixed-capacity latency recorder: nanoseconds clamped into
// uint32 (4.29 s) so a full paced phase fits in a few MB. The backing array
// is allocated and page-faulted in before the run, so neither allocation
// counts nor peak RSS depend on how many events a phase completed.
type samples struct {
	ns      []uint32
	dropped int // recorded past capacity (counted, not stored)
}

func newSamples(capacity int) *samples {
	s := &samples{ns: make([]uint32, 0, capacity)}
	buf := s.ns[:capacity]
	for i := 0; i < capacity; i += 1024 { // one write per 4 KiB page
		buf[i] = 1
	}
	return s
}

func (s *samples) add(ns int64) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(ns))
}

func (s *samples) reset() { s.ns, s.dropped = s.ns[:0], 0 }

// sortedUS returns the samples in microseconds, ascending.
func (s *samples) sortedUS() []float64 {
	out := make([]float64, len(s.ns))
	for i, v := range s.ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// countAbove returns how many of the ascending values exceed limit.
func countAbove(sorted []float64, limit float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > limit })
}
