package emanager

import (
	"testing"

	"aeon/internal/schema"
)

// TestSnapshotSeqContinuesAboveStoreMax pins the cross-process sequence
// invariant: a fresh process (simulated by resetting the process-local
// floor) checkpointing into a store that already holds snapshots must
// continue above the store's maximum — otherwise failure recovery would
// pick a pre-migration checkpoint as "latest" and restore stale state.
func TestSnapshotSeqContinuesAboveStoreMax(t *testing.T) {
	schema.RegisterWireType(&counterState{})
	f := newFixture(t, 1, 1)
	room := f.rooms[0]
	if _, err := f.rt.Submit(room, "inc"); err != nil {
		t.Fatal(err)
	}
	var lastOld string
	for i := 0; i < 3; i++ {
		key, _, err := f.mgr.Snapshot(room)
		if err != nil {
			t.Fatal(err)
		}
		lastOld = key
	}

	// A new process starts with a zero local counter but the same store.
	snapSeqMu.Lock()
	snapSeqFloor = 0
	snapSeqMu.Unlock()

	if _, err := f.rt.Submit(room, "inc"); err != nil {
		t.Fatal(err)
	}
	keyNew, _, err := f.mgr.Snapshot(room)
	if err != nil {
		t.Fatal(err)
	}
	if snapshotSeqOf(keyNew) <= snapshotSeqOf(lastOld) {
		t.Fatalf("new process wrote seq %d under existing max %d",
			snapshotSeqOf(keyNew), snapshotSeqOf(lastOld))
	}
	latest, ok, err := f.mgr.LatestSnapshot(room)
	if err != nil || !ok || latest != keyNew {
		t.Fatalf("latest = %q ok=%v err=%v, want %q", latest, ok, err, keyNew)
	}
	states, err := f.mgr.LoadSnapshot(latest)
	if err != nil {
		t.Fatal(err)
	}
	if st, found := states[room]; !found || st.(*counterState).N != 2 {
		t.Fatalf("latest snapshot state = %v, want counter 2", st)
	}
}

// TestCheckpointServerBatchesStoreWrites pins the batched checkpoint sweep:
// a server of N contexts costs one charged storage write (a single
// PutBatch), not N Puts — mirroring the migration engine's batched mapping
// publish.
func TestCheckpointServerBatchesStoreWrites(t *testing.T) {
	schema.RegisterWireType(&counterState{})
	f := newFixture(t, 1, 8)
	for _, room := range f.rooms {
		if _, err := f.rt.Submit(room, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	victim := f.rt.Cluster().Servers()[0].ID()
	_, before := f.store.Stats()
	n, err := f.mgr.CheckpointServer(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("checkpoint captured nothing")
	}
	_, after := f.store.Stats()
	if got := after - before; got != 1 {
		t.Fatalf("checkpoint sweep charged %d store writes, want 1 (batched)", got)
	}
	// Repeated sweeps prune the sequences they supersede: the keyspace
	// stays at one snapshot per context instead of growing per sweep, and
	// each later sweep costs at most two charged writes (fresh batch +
	// prune).
	for i := 0; i < 3; i++ {
		if _, err := f.mgr.CheckpointServer(victim); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := f.store.List("snapshot/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(f.rooms) {
		t.Fatalf("snapshot keyspace has %d keys after 4 sweeps, want %d (pruned)", len(keys), len(f.rooms))
	}
	_, afterSweeps := f.store.Stats()
	if got := afterSweeps - after; got != 3*2 {
		t.Fatalf("3 pruning sweeps charged %d writes, want 6 (batch+prune each)", got)
	}

	// The batched snapshots are individually loadable: every room restores.
	report, err := f.mgr.RecoverServerFailure(victim)
	if err == nil {
		t.Fatal("recovery with no surviving server should fail")
	}
	_ = report

	// Add a destination and verify restore-from-batched-checkpoint works.
	f.rt.Cluster().AddServer(f.rt.Cluster().Servers()[0].Profile())
	report, err = f.mgr.RecoverServerFailure(victim)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(report.Restored) != len(f.rooms) {
		t.Fatalf("restored %d contexts, want %d", len(report.Restored), len(f.rooms))
	}
	for i, room := range f.rooms {
		res, err := f.rt.Submit(room, "get")
		if err != nil {
			t.Fatalf("room %d: %v", i, err)
		}
		if res.(int) != 1 {
			t.Fatalf("room %d count = %v, want 1 (from batched checkpoint)", i, res)
		}
	}
}
