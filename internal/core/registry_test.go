package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"aeon/internal/ownership"
)

func TestRegistryPutGetDelete(t *testing.T) {
	r := newRegistry()
	if _, ok := r.get(1); ok {
		t.Fatal("empty registry returned a context")
	}
	c := &Context{id: 1}
	r.put(1, c)
	got, ok := r.get(1)
	if !ok || got != c {
		t.Fatalf("get(1) = %v, %v", got, ok)
	}
	if n := r.len(); n != 1 {
		t.Fatalf("len = %d", n)
	}
	r.delete(1)
	if _, ok := r.get(1); ok {
		t.Fatal("deleted context still present")
	}
	if n := r.len(); n != 0 {
		t.Fatalf("len after delete = %d", n)
	}
}

// TestRegistryGetOrPutSingleConstruction races many goroutines on getOrPut
// for the same ID and verifies the constructor runs exactly once and every
// caller observes the same context.
func TestRegistryGetOrPutSingleConstruction(t *testing.T) {
	r := newRegistry()
	const goroutines = 16
	var built atomic.Int32
	results := make([]*Context, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, _ := r.getOrPut(42, func() *Context {
				built.Add(1)
				return &Context{id: 42}
			})
			results[g] = c
		}(g)
	}
	wg.Wait()
	if built.Load() != 1 {
		t.Fatalf("constructor ran %d times; want 1", built.Load())
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d saw a different context", g)
		}
	}
}

// TestShardForDistribution checks that sequential context IDs — the
// allocator's actual pattern — spread evenly across shards rather than
// clustering.
func TestShardForDistribution(t *testing.T) {
	const ids = 10000
	var counts [shardCount]int
	for i := 1; i <= ids; i++ {
		s := shardFor(ownership.ID(i))
		if s >= shardCount {
			t.Fatalf("shardFor(%d) = %d out of range", i, s)
		}
		counts[s]++
	}
	mean := ids / shardCount
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d empty after %d sequential IDs", s, ids)
		}
		if n > 2*mean || n < mean/2 {
			t.Fatalf("shard %d holds %d of %d ids (mean %d): poor mixing", s, n, ids, mean)
		}
	}
}

func TestRegistryLenAcrossShards(t *testing.T) {
	r := newRegistry()
	const n = 500
	for i := 1; i <= n; i++ {
		r.put(ownership.ID(i), &Context{id: ownership.ID(i)})
	}
	if got := r.len(); got != n {
		t.Fatalf("len = %d; want %d", got, n)
	}
}
