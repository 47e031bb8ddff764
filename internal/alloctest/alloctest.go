// Package alloctest holds what the allocation-budget tests of core, node,
// transport and ingress share.
package alloctest

import (
	"runtime"
	"sync"
)

// PoolIsLossy reports whether sync.Pool fails to hand a Put entry back to the
// next Get on the same goroutine, as it does at random under -race.
func PoolIsLossy() bool {
	p := sync.Pool{New: func() any { return new([64]byte) }}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		p.Put(p.Get())
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs-before.Mallocs > 50
}
