package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// withProcs runs the rest of the test at GOMAXPROCS n, so a Histogram first
// recorded into there has n stripes.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// occupied counts the stripes of h that hold an observation.
func occupied(h *Histogram) int {
	n := 0
	set := h.stripes()
	for i := range set {
		if set[i].sumNs.Load() != 0 {
			n++
		}
	}
	return n
}

func TestHistogramMergesOnRead(t *testing.T) {
	withProcs(t, 8)
	var h Histogram
	// 640 observations in one bucket, spread over the stripes by their
	// nanoseconds, and one outlier on one stripe.
	for i := 0; i < 640; i++ {
		h.Record(5*time.Millisecond + time.Duration(i))
	}
	h.Record(time.Second)
	if n := occupied(&h); n < 2 {
		t.Fatalf("%d of %d stripes recorded into; the merge is not exercised", n, len(h.stripes()))
	}
	if n := h.Count(); n != 641 {
		t.Fatalf("Count = %d; want 641", n)
	}
	if max := h.Max(); max != time.Second {
		t.Fatalf("Max = %v; want 1s", max)
	}
	if p50 := h.Quantile(0.5); p50 < 4*time.Millisecond || p50 > 7*time.Millisecond {
		t.Fatalf("p50 = %v; want ~5ms", p50)
	}
	if f := h.FractionAbove(100 * time.Millisecond); f != 1.0/641 {
		t.Fatalf("FractionAbove(100ms) = %v; want one outlier's worth", f)
	}
	if snap := h.Snapshot(); snap.Count != 641 || snap.Max != time.Second {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestHistogramStripesConcurrentRecord has eight recorders share the stripes
// of a set installed beforehand, each recording its own distinct durations:
// no count, sum or max is lost to a concurrent add on the same stripe.
func TestHistogramStripesConcurrentRecord(t *testing.T) {
	withProcs(t, 8)
	var h Histogram
	h.Record(time.Millisecond)
	const goroutines = 8
	const per = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Millisecond + time.Duration(g*per+i))
			}
		}(g)
	}
	wg.Wait()
	const n = goroutines * per
	if c := h.Count(); c != n+1 {
		t.Fatalf("Count = %d; want %d", c, n+1)
	}
	// (n+1) milliseconds plus the offsets 0..n-1.
	if want := time.Duration(n+1)*time.Millisecond + time.Duration(n*(n-1)/2); h.Sum() != want {
		t.Fatalf("Sum = %v; want %v", h.Sum(), want)
	}
	if want := time.Millisecond + time.Duration(n-1); h.Max() != want {
		t.Fatalf("Max = %v; want %v", h.Max(), want)
	}
	if k := occupied(&h); k != len(h.stripes()) {
		t.Fatalf("%d of %d stripes recorded into; want all", k, len(h.stripes()))
	}
}

// TestHistogramMergeDuringRecord reads merged views (Count, Quantile,
// Snapshot, Sum) while writers are recording — the merge-on-read path must
// be race-free and every merged count must be a value some writer actually
// reached. Run under -race this pins the lock-free stripe discipline.
func TestHistogramMergeDuringRecord(t *testing.T) {
	withProcs(t, 8)
	var h Histogram
	const goroutines = 8
	const per = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(1+i%5)*time.Millisecond + time.Duration(g*per+i))
			}
		}(g)
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := h.Count()
				if n < last {
					t.Errorf("merged Count went backwards: %d -> %d", last, n)
					return
				}
				last = n
				if n > 0 {
					if q := h.Quantile(0.5); q <= 0 {
						t.Errorf("mid-flight Quantile(0.5) = %v with count %d", q, n)
						return
					}
				}
				_ = h.Snapshot()
				_ = h.Sum()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if n := h.Count(); n != goroutines*per {
		t.Fatalf("final Count = %d; want %d", n, goroutines*per)
	}
	if sum := h.Sum(); sum <= 0 {
		t.Fatalf("final Sum = %v; want positive", sum)
	}
}

// TestHistogramSpreadsWholeMicroseconds records durations a microsecond
// clock could produce: their low bits are all alike, and they must still
// reach most stripes.
func TestHistogramSpreadsWholeMicroseconds(t *testing.T) {
	withProcs(t, 8)
	var h Histogram
	for i := 1; i <= 10_000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if n := occupied(&h); n < 4 {
		t.Fatalf("10000 whole-microsecond durations reached %d of %d stripes; want at least 4", n, len(h.stripes()))
	}
}

// TestHistogramFootprint holds a Histogram to one word until its first
// Record, that Record to one stripe of ≤ 4 KiB at GOMAXPROCS 1, and every
// later Record to no allocation at all.
func TestHistogramFootprint(t *testing.T) {
	if size, word := unsafe.Sizeof(Histogram{}), unsafe.Sizeof(uintptr(0)); size != word {
		t.Fatalf("an unrecorded Histogram is %d bytes; want one word (%d)", size, word)
	}
	withProcs(t, 1)
	const fresh = 1024               // amortizes any stray allocation in the byte count
	hs := make([]Histogram, fresh+1) // AllocsPerRun calls once more to warm up
	next := 0
	if got := testing.AllocsPerRun(fresh, func() { hs[next].Record(time.Millisecond); next++ }); got != 1 {
		t.Fatalf("a first Record allocates %v objects; want 1", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range hs {
		hs[i] = Histogram{}
		hs[i].Record(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(hs)); per > 4<<10 {
		t.Fatalf("a first Record allocates %d bytes; want ≤ 4 KiB", per)
	}
	if got := testing.AllocsPerRun(1000, func() { hs[0].Record(time.Duration(next)); next++ }); got != 0 {
		t.Fatalf("a later Record allocates %v objects; want 0", got)
	}
}

// TestHistogramAnswersAgainstExactSort holds Quantile and FractionAbove to an
// exact sort of the same seeded samples. A quantile answers the lower bound
// of the exact value's bucket (at most one bucket, 2^(1/16), below it); a
// fraction counts the samples in buckets wholly above the threshold's. The
// same samples recorded over one stripe and over eight answer identically.
func TestHistogramAnswersAgainstExactSort(t *testing.T) {
	const n = 20_000 // 20 samples beyond p999
	dists := []struct {
		name string
		draw func(*rand.Rand) time.Duration
	}{
		{"uniform", func(r *rand.Rand) time.Duration {
			return time.Microsecond + time.Duration(r.Int63n(int64(10*time.Millisecond)))
		}},
		{"log-normal", func(r *rand.Rand) time.Duration { return time.Duration(math.Exp(math.Log(200e3) + r.NormFloat64())) }},
		{"bimodal", func(r *rand.Rand) time.Duration {
			if r.Intn(5) == 0 {
				return 5*time.Millisecond + time.Duration(r.Int63n(int64(time.Millisecond)))
			}
			return 50*time.Microsecond + time.Duration(r.Int63n(int64(10*time.Microsecond)))
		}},
		{"constant", func(*rand.Rand) time.Duration { return 3 * time.Millisecond }},
		{"whole-microsecond", func(r *rand.Rand) time.Duration { return time.Duration(1+r.Intn(5000)) * time.Microsecond }},
	}
	for seed, dist := range dists {
		t.Run(dist.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed + 1)))
			samples := make([]time.Duration, n)
			for i := range samples {
				samples[i] = dist.draw(rng)
			}
			var one, eight Histogram
			record := func(h *Histogram, procs int) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				for _, d := range samples {
					h.Record(d)
				}
			}
			record(&one, 1)
			record(&eight, 8)
			if len(one.stripes()) != 1 || len(eight.stripes()) != 8 {
				t.Fatalf("%d and %d stripes; want 1 and 8", len(one.stripes()), len(eight.stripes()))
			}
			exact := slices.Clone(samples)
			slices.Sort(exact)
			var sum time.Duration
			for _, d := range exact {
				sum += d
			}
			for _, h := range []*Histogram{&one, &eight} {
				if h.Count() != n || h.Sum() != sum || h.Max() != exact[n-1] || h.Mean() != sum/n {
					t.Fatalf("count %d, sum %v, max %v, mean %v; want %d, %v, %v, %v",
						h.Count(), h.Sum(), h.Max(), h.Mean(), n, sum, exact[n-1], sum/n)
				}
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				want := exact[int(q*n)]
				got := one.Quantile(q)
				if got != bucketValue(bucketIndex(want)) || got > want || float64(want) > float64(got)*math.Exp2(1.0/bucketsPerOctave)+2 {
					t.Errorf("Quantile(%v) = %v; the exact answer %v is not in the bucket it starts", q, got, want)
				}
				if g8 := eight.Quantile(q); g8 != got {
					t.Errorf("Quantile(%v) = %v over eight stripes, %v over one", q, g8, got)
				}
				var above, bucketsAbove int
				for _, d := range exact {
					if d > want {
						above++
					}
					if bucketIndex(d) > bucketIndex(want) {
						bucketsAbove++
					}
				}
				f := one.FractionAbove(want)
				if f != float64(bucketsAbove)/n || f > float64(above)/n {
					t.Errorf("FractionAbove(%v) = %v; want %v at bucket granularity (exact %v)", want, f, float64(bucketsAbove)/n, float64(above)/n)
				}
				if f8 := eight.FractionAbove(want); f8 != f {
					t.Errorf("FractionAbove(%v) = %v over eight stripes, %v over one", want, f8, f)
				}
			}
		})
	}
}

// BenchmarkHistogramRecord records durations spread over three decades from
// every goroutine -cpu allows, all into one Histogram.
func BenchmarkHistogramRecord(b *testing.B) {
	var durations [1024]time.Duration
	rng := rand.New(rand.NewSource(1))
	for i := range durations {
		durations[i] = time.Duration(math.Exp(math.Log(10e3) + 3*math.Ln10*rng.Float64()))
	}
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			h.Record(durations[i&(len(durations)-1)])
		}
	})
}
