package ingress

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aeon/internal/clock"
)

// ManualClock is the clock the coalescer tests install in place of real
// time: a linger timer armed on it fires only when the test calls Fire, on
// the test's goroutine, and never once stopped. Firing from the test and not
// from inside AfterFunc matters, because the coalescer arms under its mutex.
type ManualClock struct {
	mu    sync.Mutex
	armed []*manualTimer
}

type manualTimer struct {
	f    func()
	done atomic.Bool // fired or stopped
}

func (m *manualTimer) Stop() bool { return m.done.CompareAndSwap(false, true) }

// UseManualClock installs a ManualClock until the test ends.
func UseManualClock(t testing.TB) *ManualClock {
	c := &ManualClock{}
	t.Cleanup(clock.Use(c))
	return c
}

func (c *ManualClock) AfterFunc(_ time.Duration, f func()) clock.Timer {
	m := &manualTimer{f: f}
	c.mu.Lock()
	c.armed = append(c.armed, m)
	c.mu.Unlock()
	return m
}

func (c *ManualClock) Tick(time.Duration) (<-chan time.Time, func()) { return nil, func() {} }

// Armed returns how many timers were armed on c, stopped and fired ones
// included.
func (c *ManualClock) Armed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.armed)
}

// Fire runs every timer armed on c that has neither fired nor been stopped,
// and returns how many ran.
func (c *ManualClock) Fire() int {
	c.mu.Lock()
	armed := append([]*manualTimer(nil), c.armed...)
	c.mu.Unlock()
	n := 0
	for _, m := range armed {
		if m.done.CompareAndSwap(false, true) {
			m.f()
			n++
		}
	}
	return n
}
