package emanager

import (
	"errors"
	"testing"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// contentiousStore wraps the real store and, on the sweep's first
// CreateBatch, lands a competing write on one of the exact keys the sweep is
// about to create — the interleaving two concurrent checkpoint sweeps (two
// eManager processes, or a periodic sweep racing a manual one) produce when
// both List the same sequence floors.
type contentiousStore struct {
	cloudstore.API
	t        *testing.T
	attempts int
	injected string
}

func (s *contentiousStore) CreateBatch(entries map[string][]byte) (uint64, error) {
	s.attempts++
	if s.attempts == 1 {
		for k := range entries {
			if _, err := s.API.Put(k, []byte("competing-sweep")); err != nil {
				s.t.Fatalf("inject competitor: %v", err)
			}
			s.injected = k
			break
		}
	}
	return s.API.CreateBatch(entries)
}

// TestCheckpointServerSurvivesConcurrentSweep pins the CAS publication loop:
// when a concurrent sweeper publishes the same snapshot generation between
// this sweep's List and its write, the write must fail and re-key above the
// competitor — never blind-overwrite its entry. The old PutBatch path would
// silently replace the competitor's checkpoint with state captured earlier,
// leaving "latest" pointing at data both sweeps believed superseded.
func TestCheckpointServerSurvivesConcurrentSweep(t *testing.T) {
	schema.RegisterWireType(&counterState{})
	s := testSchema(t)
	cl := cluster.New(transport.NullNetwork{})
	cl.AddServer(cluster.M3Large)
	rt, err := core.New(s, ownership.NewGraph(), cl, core.Config{AcquireTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	inner := cloudstore.New()
	store := &contentiousStore{API: inner, t: t}
	cfg := DefaultConfig()
	cfg.Delta = time.Millisecond
	cfg.ProtocolWork = 0
	mgr := New(rt, store, cfg)

	srv := cl.Servers()[0].ID()
	room, err := rt.CreateContextOn(srv, "Room")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(room, "inc"); err != nil {
		t.Fatal(err)
	}

	n, err := mgr.CheckpointServer(srv)
	if err != nil {
		t.Fatalf("checkpoint under contention: %v", err)
	}
	if n != 1 {
		t.Fatalf("captured %d contexts, want 1", n)
	}
	if store.attempts < 2 {
		t.Fatalf("CreateBatch ran %d times, want ≥2 (conflict must force a retry)", store.attempts)
	}

	// The sweep re-keyed above the competitor instead of overwriting it.
	latest, ok, err := mgr.LatestSnapshot(room)
	if err != nil || !ok {
		t.Fatalf("latest snapshot: ok=%v err=%v", ok, err)
	}
	if latest == store.injected {
		t.Fatalf("sweep landed on the competitor's key %q — blind overwrite", latest)
	}
	if snapshotSeqOf(latest) <= snapshotSeqOf(store.injected) {
		t.Fatalf("sweep seq %d did not advance past competitor seq %d",
			snapshotSeqOf(latest), snapshotSeqOf(store.injected))
	}
	states, err := mgr.LoadSnapshot(latest)
	if err != nil {
		t.Fatalf("load re-keyed checkpoint: %v", err)
	}
	if st, found := states[room]; !found || st.(*counterState).N != 1 {
		t.Fatalf("re-keyed checkpoint state = %v, want counter 1", st)
	}
}

// TestCreateBatchAtomicCreateOnly pins the store primitive the sweep relies
// on: any existing key fails the whole batch with ErrVersionMismatch and
// nothing is written.
func TestCreateBatchAtomicCreateOnly(t *testing.T) {
	s := cloudstore.New()
	if _, err := s.Put("a", []byte("old")); err != nil {
		t.Fatal(err)
	}
	_, err := s.CreateBatch(map[string][]byte{
		"a": []byte("new"),
		"b": []byte("fresh"),
	})
	if !errors.Is(err, cloudstore.ErrVersionMismatch) {
		t.Fatalf("CreateBatch over existing key: %v, want ErrVersionMismatch", err)
	}
	if v, _, err := s.Get("a"); err != nil || string(v) != "old" {
		t.Fatalf("existing key mutated by failed CreateBatch: %q, %v", v, err)
	}
	if _, _, err := s.Get("b"); err == nil {
		t.Fatalf("failed CreateBatch leaked a partial write")
	}
	if _, err := s.CreateBatch(map[string][]byte{"b": []byte("fresh"), "c": []byte("x")}); err != nil {
		t.Fatalf("clean CreateBatch: %v", err)
	}
	if v, _, err := s.Get("b"); err != nil || string(v) != "fresh" {
		t.Fatalf("created key: %q, %v", v, err)
	}
}
