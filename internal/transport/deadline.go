package transport

import (
	"context"
	"sync"
	"time"
)

// Deadline is the context of a hot call: a deadline and nothing else — no
// parent, no values, no cancel. context.WithTimeout costs a call five
// allocations for a timer that fires once in a million calls; a Deadline
// comes from a pool and re-arms its one timer. The price is the contract: it
// must not be retained — by the callee, or by a context derived from it —
// once Release has been called.
type Deadline struct {
	at    time.Time
	done  chan struct{}
	timer *time.Timer
}

var deadlines sync.Pool

// NewDeadline returns a context that expires after d. Release it when the
// call it was made for has returned.
func NewDeadline(d time.Duration) *Deadline {
	c, _ := deadlines.Get().(*Deadline)
	if c == nil {
		c = &Deadline{done: make(chan struct{})}
		c.timer = time.AfterFunc(d, func() { close(c.done) })
	} else {
		c.timer.Reset(d)
	}
	c.at = time.Now().Add(d)
	return c
}

// Release returns the context to the pool — unless it expired: done is
// closed, or about to be, and an expired context is never recycled.
func (c *Deadline) Release() {
	if c.timer.Stop() {
		deadlines.Put(c)
	}
}

// Deadline, Done, Err and Value implement context.Context.
func (c *Deadline) Deadline() (time.Time, bool) { return c.at, true }
func (c *Deadline) Done() <-chan struct{}       { return c.done }
func (c *Deadline) Value(any) any               { return nil }
func (c *Deadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}
