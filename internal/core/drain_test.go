package core

import (
	"errors"
	"runtime"
	"testing"

	"aeon/internal/ownership"
)

// queuedOn reports how many activations wait in c's queue.
func queuedOn(c *Context) int {
	c.lock.lock()
	defer c.lock.unlock()
	return len(c.lock.queue)
}

// TestDrainRefusesAnEventQueuedOnItsDominator pins where Drain refuses: an
// event already queued on its dominator when Drain begins is refused once it
// holds it, so it cannot run behind a checkpoint taken after Drain; and a
// snapshot still runs on the drained runtime.
func TestDrainRefusesAnEventQueuedOnItsDominator(t *testing.T) {
	w := newTestWorld(t)
	room, err := w.rt.Context(w.room)
	if err != nil {
		t.Fatal(err)
	}
	release, err := w.rt.LockForMigration(w.room)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.rt.Submit(w.room, "noop")
		done <- err
	}()
	for queuedOn(room) < 1 {
		runtime.Gosched()
	}
	drained := make(chan struct{})
	go func() {
		w.rt.Drain()
		close(drained)
	}()
	for queuedOn(room) < 2 { // Drain's pass queued behind the event
		runtime.Gosched()
	}
	release()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("event queued before Drain = %v, want ErrClosed", err)
	}
	<-drained
	if err := w.rt.WithSubtreeShared(w.room, func([]ownership.ID) error { return nil }); err != nil {
		t.Fatalf("snapshot of a drained runtime: %v", err)
	}
	w.rt.Close()
	if err := w.rt.WithSubtreeShared(w.room, func([]ownership.ID) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("snapshot of a closed runtime = %v, want ErrClosed", err)
	}
}
