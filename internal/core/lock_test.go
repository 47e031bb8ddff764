package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLockExclusiveBlocks(t *testing.T) {
	l := new(eventLock)
	if first, _, err := l.acquire(1, EX, 0); err != nil || !first {
		t.Fatalf("first acquire: %v %v", first, err)
	}
	acquired := make(chan struct{})
	go func() {
		_, _, _ = l.acquire(2, EX, 0)
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
	l := new(eventLock)
	first, _, _ := l.acquire(1, EX, 0)
	if !first {
		t.Fatal("want first=true")
	}
	again, _, _ := l.acquire(1, EX, 0)
	if again {
		t.Fatal("re-entrant acquire must report first=false")
	}
	if l.holderCount() != 1 {
		t.Fatalf("holders = %d", l.holderCount())
	}
}

func TestLockSharedReaders(t *testing.T) {
	l := new(eventLock)
	for id := uint64(1); id <= 3; id++ {
		done := make(chan struct{})
		go func(id uint64) {
			_, _, _ = l.acquire(id, RO, 0)
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
	l := new(eventLock)
	_, _, _ = l.acquire(1, RO, 0)
	_, _, _ = l.acquire(2, RO, 0)
	acquired := make(chan struct{})
	go func() {
		_, _, _ = l.acquire(3, EX, 0)
		close(acquired)
	}()
	waitFor(t, "the writer to queue", func() bool { return l.queueLen() == 1 })
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
	l := new(eventLock)
	_, _, _ = l.acquire(1, RO, 0) // active reader

	writerIn := make(chan struct{})
	go func() {
		_, _, _ = l.acquire(2, EX, 0)
		close(writerIn)
	}()
	waitFor(t, "the writer to queue", func() bool { return l.queueLen() == 1 })

	lateReaderIn := make(chan struct{})
	go func() {
		_, _, _ = l.acquire(3, RO, 0)
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
	l := new(eventLock)
	_, _, _ = l.acquire(100, EX, 0)
	var order []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id := uint64(1); id <= 5; id++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			_, _, _ = l.acquire(id, EX, 0)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			l.release(id)
		}(id)
		waitFor(t, "the writer to queue", func() bool { return l.queueLen() == int(id) }) // arrival order
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
	l := new(eventLock)
	_, _, _ = l.acquire(1, EX, 0)
	start := time.Now()
	_, _, err := l.acquire(2, EX, 20*time.Millisecond)
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
	if first, _, err := l.acquire(3, EX, 0); err != nil || !first {
		t.Fatalf("post-timeout acquire: %v %v", first, err)
	}
}

func TestLockReleaseUnheldIsNoop(t *testing.T) {
	l := new(eventLock)
	l.release(42) // must not panic or corrupt
	if first, _, err := l.acquire(1, EX, 0); err != nil || !first {
		t.Fatalf("acquire after spurious release: %v %v", first, err)
	}
}

func TestLockConcurrentStress(t *testing.T) {
	l := new(eventLock)
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
			_, _, _ = l.acquire(id, mode, 0)
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
	l.lock()
	defer l.unlock()
	if l.ex != 0 {
		return 1
	}
	return len(l.ro)
}

// queueLen reports how many events are waiting for activation.
func (l *eventLock) queueLen() int {
	l.lock()
	defer l.unlock()
	return len(l.queue)
}

// waitFor polls cond, yielding between reads, until it holds; the event a
// lock test waits for is another goroutine's arrival in the queue, which
// nothing signals.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestLockTimeoutPumpsWaitersBehind: a waiter that gives up must admit whoever
// it was standing in front of. A reader holds, a writer queues with a timeout
// (a migration stop attempt's member timeout is exactly this), a second reader
// queues behind the writer. When the writer times out the second reader is
// first in line and admissible — it must not stay parked until the first
// reader happens to release.
func TestLockTimeoutPumpsWaitersBehind(t *testing.T) {
	l := new(eventLock)
	_, _, _ = l.acquire(1, RO, 0)
	writer := make(chan error, 1)
	go func() {
		_, _, err := l.acquire(2, EX, 20*time.Millisecond)
		writer <- err
	}()
	waitFor(t, "the writer to queue", func() bool { return l.queueLen() == 1 })
	reader := make(chan bool, 1)
	go func() {
		_, waited, _ := l.acquire(3, RO, 0)
		reader <- waited > 0
	}()
	waitFor(t, "the second reader to queue", func() bool { return l.queueLen() == 2 })
	if err := <-writer; !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("writer: err = %v; want ErrAcquireTimeout", err)
	}
	select {
	case waited := <-reader:
		if !waited {
			t.Fatal("the second reader queued but did not report a wait")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("reader still parked after the writer ahead of it timed out (holders=%d queue=%d)", l.holderCount(), l.queueLen())
	}
	if h, q := l.holderCount(), l.queueLen(); h != 2 || q != 0 {
		t.Fatalf("holders=%d queue=%d; want both readers in and nobody waiting", h, q)
	}
}

// TestLockThinTransitions walks the lock through its two representations.
// Each script runs on a fresh lock; after every step the thin word, the holder
// count and the queue length (the latter two read through the same inflate
// step every mutex path takes) must be what the step says.
func TestLockThinTransitions(t *testing.T) {
	type step struct {
		op   string // enqueue, release, timeout (a 5 ms acquire), wait (for the waiter enqueue returned)
		id   uint64
		mode AccessMode
		// enqueue: a waiter was returned / admitted synchronously; wait: admitted.
		queued, admitted bool
		thin             uint64
		holders, queue   int
	}
	const inflated = lockInflated
	scripts := map[string][]step{
		"a second writer inflates, hand-over, the last release deflates": {
			{op: "enqueue", id: 1, mode: EX, admitted: true, thin: 1, holders: 1},
			{op: "enqueue", id: 2, mode: EX, queued: true, thin: inflated, holders: 1, queue: 1},
			{op: "enqueue", id: 3, mode: EX, queued: true, thin: inflated, holders: 1, queue: 2},
			{op: "release", id: 1, thin: inflated, holders: 1, queue: 1},
			{op: "wait", id: 2, admitted: true, thin: inflated, holders: 1, queue: 1},
			{op: "release", id: 2, thin: 3, holders: 1}, // the last waiter of the burst holds thin
			{op: "wait", id: 3, admitted: true, thin: 3, holders: 1},
			{op: "release", id: 3},
			{op: "enqueue", id: 4, mode: EX, admitted: true, thin: 4, holders: 1},
		},
		"readers never hold thin": {
			{op: "enqueue", id: 1, mode: RO, admitted: true, thin: inflated, holders: 1},
			{op: "enqueue", id: 2, mode: RO, admitted: true, thin: inflated, holders: 2},
			{op: "enqueue", id: 1, mode: RO, thin: inflated, holders: 2}, // re-entrant
			{op: "enqueue", id: 1, mode: EX, thin: inflated, holders: 2}, // re-entrant, either mode
			{op: "release", id: 1, thin: inflated, holders: 1},
			{op: "release", id: 2},
		},
		"re-entry by the thin holder, release by a stranger": {
			{op: "enqueue", id: 7, mode: EX, admitted: true, thin: 7, holders: 1},
			{op: "enqueue", id: 7, mode: EX, thin: 7, holders: 1},
			{op: "enqueue", id: 7, mode: RO, thin: 7, holders: 1},
			{op: "release", id: 8, thin: 7, holders: 1},
			{op: "release", id: 7},
			{op: "release", id: 7}, // a second release finds an idle lock and leaves it idle
		},
		"a reader behind a thin holder": {
			{op: "enqueue", id: 1, mode: EX, admitted: true, thin: 1, holders: 1},
			{op: "enqueue", id: 2, mode: RO, queued: true, thin: inflated, holders: 1, queue: 1},
			{op: "release", id: 1, thin: inflated, holders: 1},
			{op: "wait", id: 2, admitted: true, thin: inflated, holders: 1},
			{op: "release", id: 2},
		},
		"a waiter times out against a thin holder": {
			{op: "enqueue", id: 1, mode: EX, admitted: true, thin: 1, holders: 1},
			{op: "timeout", id: 2, mode: EX, thin: 1, holders: 1},
			{op: "timeout", id: 3, mode: RO, thin: 1, holders: 1},
			{op: "release", id: 1},
		},
		"crab: enqueue now, wait later": {
			{op: "enqueue", id: 1, mode: EX, admitted: true, thin: 1, holders: 1},
			{op: "enqueue", id: 2, mode: EX, queued: true, thin: inflated, holders: 1, queue: 1},
			{op: "release", id: 1, thin: 2, holders: 1},
			{op: "wait", id: 2, admitted: true, thin: 2, holders: 1},
			{op: "release", id: 2},
		},
		"crab aborted before admission": {
			{op: "enqueue", id: 1, mode: EX, admitted: true, thin: 1, holders: 1},
			{op: "enqueue", id: 2, mode: EX, queued: true, thin: inflated, holders: 1, queue: 1},
			{op: "release", id: 2, thin: 1, holders: 1},
			{op: "wait", id: 2, thin: 1, holders: 1}, // cancelled, not admitted
			{op: "release", id: 1},
		},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			l := new(eventLock)
			waiters := map[uint64]*waiter{}
			for i, s := range script {
				switch s.op {
				case "enqueue":
					w, admitted := l.enqueue(s.id, s.mode)
					if (w != nil) != s.queued || admitted != s.admitted {
						t.Fatalf("step %d %+v: enqueue = (waiter %v, admitted %v)", i, s, w != nil, admitted)
					}
					waiters[s.id] = w
				case "release":
					l.release(s.id)
				case "timeout":
					if first, waited, err := l.acquire(s.id, s.mode, 5*time.Millisecond); first || waited == 0 || !errors.Is(err, ErrAcquireTimeout) {
						t.Fatalf("step %d %+v: acquire = (%v, %v, %v); want a wait that timed out", i, s, first, waited, err)
					}
				case "wait":
					select {
					case <-waiters[s.id].ready:
					default:
						t.Fatalf("step %d %+v: the waiter was not woken", i, s)
					}
					if got := l.waitAdmitted(waiters[s.id]); got != s.admitted {
						t.Fatalf("step %d %+v: waitAdmitted = %v", i, s, got)
					}
				}
				// The thin word first: the helpers inflate and deflate on their way.
				if got := l.thin.Load(); got != s.thin {
					t.Fatalf("step %d %+v: thin = %#x", i, s, got)
				}
				if h, q := l.holderCount(), l.queueLen(); h != s.holders || q != s.queue {
					t.Fatalf("step %d %+v: holders=%d queue=%d", i, s, h, q)
				}
				if got := l.thin.Load(); got != s.thin {
					t.Fatalf("step %d %+v: reading the lock moved thin to %#x", i, s, got)
				}
			}
		})
	}
}

// TestLockStressMixed is meant for -race: goroutines mix exclusive, readonly
// and timed acquisitions on one lock, so holds are admitted thin, inflated,
// handed over and deflated in every interleaving the scheduler finds. A plain
// counter written only under EX and read under RO lets the detector prove
// exclusion across both representations; waiters that queued through enqueue
// take an arrival number under the test's own mutex, and every exclusive
// admission among them must sit in the admission log exactly where it arrived.
func TestLockStressMixed(t *testing.T) {
	const workers, rounds = 8, 300
	type admission struct {
		seq int // arrival number of a waiter that queued
		ex  bool
	}
	l := new(eventLock)
	var (
		counter  int // plain: written under EX, read under RO
		exHolds  atomic.Int64
		ids      atomic.Uint64
		arriveMu sync.Mutex // arrival order of queued waiters
		arrivals int
		logMu    sync.Mutex
		admitted []admission
		wg       sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			seen := 0 // the counter as this goroutine's readonly holds last read it
			for i := 0; i < rounds; i++ {
				id, mode := ids.Add(1), EX
				if rng.Intn(3) == 0 {
					mode = RO
				}
				if rng.Intn(4) == 0 {
					// A timed acquisition; it may well be admitted first.
					if _, _, err := l.acquire(id, mode, time.Duration(rng.Intn(200))*time.Microsecond); err != nil {
						continue
					}
				} else {
					arriveMu.Lock()
					w, _ := l.enqueue(id, mode)
					seq := arrivals
					if w != nil {
						arrivals++
					}
					arriveMu.Unlock()
					if w != nil {
						if !l.waitAdmitted(w) {
							t.Error("a waiter nobody released was cancelled")
							return
						}
						logMu.Lock()
						admitted = append(admitted, admission{seq, mode == EX})
						logMu.Unlock()
					}
				}
				if mode == EX {
					counter++
					exHolds.Add(1)
				} else if c := counter; c < seen {
					t.Errorf("a reader saw the counter go back from %d to %d", seen, c)
				} else {
					seen = c
				}
				if rng.Intn(2) == 0 {
					runtime.Gosched() // hold across a reschedule, so others find a holder
				}
				l.release(id)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if int64(counter) != exHolds.Load() {
		t.Fatalf("counter = %d after %d exclusive holds", counter, exHolds.Load())
	}
	if h, q, thin := l.holderCount(), l.queueLen(), l.thin.Load(); h != 0 || q != 0 || thin != 0 {
		t.Fatalf("holders=%d queue=%d thin=%#x at the end; want an idle thin lock", h, q, thin)
	}
	// FIFO on the inflated path: a queued writer is admitted after everything
	// that queued before it and before everything that queued after it.
	// (Readers admitted together log in whatever order they woke.)
	maxBefore := -1
	for i, a := range admitted {
		if a.ex {
			if a.seq < maxBefore {
				t.Fatalf("writer with arrival %d admitted after arrival %d (log position %d)", a.seq, maxBefore, i)
			}
			for _, b := range admitted[i+1:] {
				if b.seq < a.seq {
					t.Fatalf("arrival %d admitted after the writer that arrived behind it at %d", b.seq, a.seq)
				}
			}
		}
		maxBefore = max(maxBefore, a.seq)
	}
	if len(admitted) == 0 {
		t.Fatal("nothing ever queued: the stress never left the thin path")
	}
}
