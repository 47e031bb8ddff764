package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// lockModel is a trivially correct reference implementation of the fair
// FIFO read/write activation queue: a queue of (event, mode) plus a holder
// set, with the Algorithm 2 admission rule applied wholesale.
type lockModel struct {
	queue   []modelWaiter
	holders map[uint64]AccessMode
}

type modelWaiter struct {
	id   uint64
	mode AccessMode
}

func newLockModel() *lockModel {
	return &lockModel{holders: make(map[uint64]AccessMode)}
}

func (m *lockModel) hasEX() bool {
	for _, md := range m.holders {
		if md == EX {
			return true
		}
	}
	return false
}

func (m *lockModel) enqueue(id uint64, mode AccessMode) {
	if _, ok := m.holders[id]; ok {
		return
	}
	m.queue = append(m.queue, modelWaiter{id: id, mode: mode})
	m.pump()
}

func (m *lockModel) release(id uint64) {
	if _, ok := m.holders[id]; ok {
		delete(m.holders, id)
	} else {
		for i, w := range m.queue {
			if w.id == id {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
	}
	m.pump()
}

func (m *lockModel) pump() {
	for len(m.queue) > 0 {
		head := m.queue[0]
		if head.mode == RO && !m.hasEX() {
			// admitted
		} else if len(m.holders) == 0 {
			// admitted
		} else {
			return
		}
		m.holders[head.id] = head.mode
		m.queue = m.queue[1:]
	}
}

func (m *lockModel) holderSet() map[uint64]AccessMode {
	out := make(map[uint64]AccessMode, len(m.holders))
	for k, v := range m.holders {
		out[k] = v
	}
	return out
}

// implHolderSet snapshots the real lock's holders.
func implHolderSet(l *eventLock) map[uint64]AccessMode {
	l.lock()
	defer l.unlock()
	out := make(map[uint64]AccessMode, len(l.ro)+1)
	if l.ex != 0 {
		out[l.ex] = EX
	}
	for _, id := range l.ro {
		if _, dup := out[id]; dup {
			panic("eventLock: duplicate holder")
		}
		out[id] = RO
	}
	return out
}

// TestLockMatchesModel drives the real eventLock and the reference model
// with identical random operation sequences (single-threaded, using the
// non-blocking enqueue) and compares holder sets after every step. The mix
// covers RO and EX arrivals, releases of holders and of queued waiters, and
// re-entrant acquires by current holders (which must change nothing and
// report neither a waiter nor a fresh admission).
func TestLockMatchesModel(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		impl := new(eventLock)
		model := newLockModel()
		live := make(map[uint64]bool)
		nextID := uint64(1)

		for s := 0; s < int(steps%120)+20; s++ {
			if holders := implHolderSet(impl); len(holders) > 0 && rng.Intn(100) < 15 {
				// re-entrant acquire by a current holder (the oldest, so the
				// schedule depends on the seed alone), in either mode
				var id uint64
				for h := range holders {
					if id == 0 || h < id {
						id = h
					}
				}
				mode := RO + AccessMode(rng.Intn(2))
				if w, admitted := impl.enqueue(id, mode); w != nil || admitted {
					return false
				}
				model.enqueue(id, mode)
			} else if len(live) == 0 || rng.Intn(100) < 55 {
				// enqueue a new event
				id := nextID
				nextID++
				mode := EX
				if rng.Intn(100) < 40 {
					mode = RO
				}
				live[id] = true
				impl.enqueue(id, mode)
				model.enqueue(id, mode)
			} else {
				// release a random live event (holder or queued)
				var ids []uint64
				for id := range live {
					ids = append(ids, id)
				}
				id := ids[rng.Intn(len(ids))]
				delete(live, id)
				impl.release(id)
				model.release(id)
			}
			got := implHolderSet(impl)
			want := model.holderSet()
			if len(got) != len(want) {
				return false
			}
			for id, mode := range want {
				if got[id] != mode {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLockModelInvariants double-checks the admission invariants on the
// real lock under the same random schedules: never EX+anything, never an
// admitted waiter overtaking a blocked earlier one of conflicting mode.
func TestLockInvariantsRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		impl := new(eventLock)
		live := map[uint64]AccessMode{}
		nextID := uint64(1)
		for s := 0; s < 150; s++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				id := nextID
				nextID++
				mode := EX
				if rng.Intn(3) == 0 {
					mode = RO
				}
				live[id] = mode
				impl.enqueue(id, mode)
			} else {
				var ids []uint64
				for id := range live {
					ids = append(ids, id)
				}
				id := ids[rng.Intn(len(ids))]
				delete(live, id)
				impl.release(id)
			}
			holders := implHolderSet(impl)
			ex := 0
			for _, mode := range holders {
				if mode == EX {
					ex++
				}
			}
			if ex > 1 || (ex == 1 && len(holders) > 1) {
				return false // EX must be exclusive
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
