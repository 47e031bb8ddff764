package metrics

import (
	"sync"
	"testing"
)

func TestStripedCounter(t *testing.T) {
	var c StripedCounter
	const goroutines = 8
	const per = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.IncAt(uint64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	if v := c.Value(); v != goroutines*per {
		t.Fatalf("Value = %d; want %d", v, goroutines*per)
	}
}
