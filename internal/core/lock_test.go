package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLockExclusiveBlocks(t *testing.T) {
	l := newEventLock()
	if first, err := l.acquire(1, EX, 0); err != nil || !first {
		t.Fatalf("first acquire: %v %v", first, err)
	}
	acquired := make(chan struct{})
	go func() {
		_, _ = l.acquire(2, EX, 0)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("second EX acquire should block")
	case <-time.After(20 * time.Millisecond):
	}
	l.release(1)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("second EX acquire should proceed after release")
	}
}

func TestLockReentrant(t *testing.T) {
	l := newEventLock()
	first, _ := l.acquire(1, EX, 0)
	if !first {
		t.Fatal("want first=true")
	}
	again, _ := l.acquire(1, EX, 0)
	if again {
		t.Fatal("re-entrant acquire must report first=false")
	}
	if l.holderCount() != 1 {
		t.Fatalf("holders = %d", l.holderCount())
	}
}

func TestLockSharedReaders(t *testing.T) {
	l := newEventLock()
	for id := uint64(1); id <= 3; id++ {
		done := make(chan struct{})
		go func(id uint64) {
			_, _ = l.acquire(id, RO, 0)
			close(done)
		}(id)
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("reader %d blocked", id)
		}
	}
	if l.holderCount() != 3 {
		t.Fatalf("holders = %d; want 3", l.holderCount())
	}
}

func TestLockWriterWaitsForReaders(t *testing.T) {
	l := newEventLock()
	_, _ = l.acquire(1, RO, 0)
	_, _ = l.acquire(2, RO, 0)
	acquired := make(chan struct{})
	go func() {
		_, _ = l.acquire(3, EX, 0)
		close(acquired)
	}()
	time.Sleep(10 * time.Millisecond)
	l.release(1)
	select {
	case <-acquired:
		t.Fatal("writer should wait for all readers")
	case <-time.After(10 * time.Millisecond):
	}
	l.release(2)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("writer should proceed once readers drain")
	}
}

// TestLockFIFONoReaderBarging: a reader arriving after a waiting writer must
// not overtake it (starvation freedom).
func TestLockFIFONoReaderBarging(t *testing.T) {
	l := newEventLock()
	_, _ = l.acquire(1, RO, 0) // active reader

	writerIn := make(chan struct{})
	go func() {
		_, _ = l.acquire(2, EX, 0)
		close(writerIn)
	}()
	time.Sleep(10 * time.Millisecond) // writer is queued

	lateReaderIn := make(chan struct{})
	go func() {
		_, _ = l.acquire(3, RO, 0)
		close(lateReaderIn)
	}()
	select {
	case <-lateReaderIn:
		t.Fatal("late reader barged past waiting writer")
	case <-time.After(20 * time.Millisecond):
	}
	l.release(1)
	<-writerIn
	select {
	case <-lateReaderIn:
		t.Fatal("late reader admitted while writer holds")
	case <-time.After(10 * time.Millisecond):
	}
	l.release(2)
	select {
	case <-lateReaderIn:
	case <-time.After(time.Second):
		t.Fatal("late reader should follow writer")
	}
}

func TestLockFIFOOrderAmongWriters(t *testing.T) {
	l := newEventLock()
	_, _ = l.acquire(100, EX, 0)
	var order []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id := uint64(1); id <= 5; id++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			_, _ = l.acquire(id, EX, 0)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			l.release(id)
		}(id)
		time.Sleep(5 * time.Millisecond) // establish arrival order
	}
	l.release(100)
	wg.Wait()
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("admission order = %v; want FIFO 1..5", order)
		}
	}
}

func TestLockAcquireTimeout(t *testing.T) {
	l := newEventLock()
	_, _ = l.acquire(1, EX, 0)
	start := time.Now()
	_, err := l.acquire(2, EX, 20*time.Millisecond)
	if !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("err = %v; want ErrAcquireTimeout", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("returned before timeout")
	}
	// The timed-out waiter must be gone: release should admit nobody else.
	if l.queueLen() != 0 {
		t.Fatalf("queue = %d; want 0 after timeout removal", l.queueLen())
	}
	l.release(1)
	// Lock is free again.
	if first, err := l.acquire(3, EX, 0); err != nil || !first {
		t.Fatalf("post-timeout acquire: %v %v", first, err)
	}
}

func TestLockReleaseUnheldIsNoop(t *testing.T) {
	l := newEventLock()
	l.release(42) // must not panic or corrupt
	if first, err := l.acquire(1, EX, 0); err != nil || !first {
		t.Fatalf("acquire after spurious release: %v %v", first, err)
	}
}

func TestLockConcurrentStress(t *testing.T) {
	l := newEventLock()
	var active atomic.Int32
	var roActive atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(id uint64, ro bool) {
			defer wg.Done()
			mode := EX
			if ro {
				mode = RO
			}
			_, _ = l.acquire(id, mode, 0)
			if ro {
				roActive.Add(1)
				if active.Load() > 0 {
					t.Error("reader admitted alongside writer")
				}
				roActive.Add(-1)
			} else {
				if active.Add(1) > 1 {
					t.Error("two writers active")
				}
				if roActive.Load() > 0 {
					t.Error("writer admitted alongside readers")
				}
				active.Add(-1)
			}
			l.release(id)
		}(uint64(i+1), i%3 == 0)
	}
	wg.Wait()
}

// holderCount reports how many events currently hold the context.
func (l *eventLock) holderCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ex != 0 {
		return 1
	}
	return len(l.ro)
}

// queueLen reports how many events are waiting for activation.
func (l *eventLock) queueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}
