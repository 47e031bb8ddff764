// Package clock holds the runtime's monotonic clock read and is the seam
// through which it arms the timers a test has to steer: the coalescer's
// linger, the replica-lag wait, the replication tailer's poll and the
// eManager's policy loop. In production the timers are package time. A test
// installs its own Source with Use and decides when, or whether, each timer
// fires. The read is not behind the seam: it is on every event's path.
// Transport deadlines and modelled latencies call package time directly.
package clock

import (
	"sync/atomic"
	"time"
)

// Instant is a reading of the process's monotonic clock, as an offset from a
// base fixed at start-up. Two readings only ever get subtracted, and taking
// one reads the monotonic clock alone where time.Now reads the wall clock
// too.
type Instant time.Duration

var base = time.Now()

// Now reads the clock.
func Now() Instant { return Instant(time.Since(base)) }

// Sub returns the time elapsed from u to t.
func (t Instant) Sub(u Instant) time.Duration { return time.Duration(t - u) }

// Since returns the time elapsed since t.
func Since(t Instant) time.Duration { return Now().Sub(t) }

// Timer is a timer armed by AfterFunc; *time.Timer is one.
type Timer interface{ Stop() bool }

// Source arms timers. Tick returns a ticker's channel and its stop function.
type Source interface {
	AfterFunc(d time.Duration, f func()) Timer
	Tick(d time.Duration) (<-chan time.Time, func())
}

type system struct{}

func (system) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

func (system) Tick(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

var installed atomic.Pointer[Source]

func init() { Use(system{}) }

// AfterFunc calls f on its own goroutine once d has passed on the installed
// source.
func AfterFunc(d time.Duration, f func()) Timer { return (*installed.Load()).AfterFunc(d, f) }

// Tick starts a ticker of period d on the installed source.
func Tick(d time.Duration) (<-chan time.Time, func()) { return (*installed.Load()).Tick(d) }

// Use installs s for every timer armed from now on and returns a function
// that restores the previous source; tests call it from t.Cleanup.
func Use(s Source) (restore func()) {
	prev := installed.Swap(&s)
	return func() { installed.Store(prev) }
}
