package emanager

import (
	"testing"

	"aeon/internal/schema"
)

func TestCheckpointAndRecoverServerFailure(t *testing.T) {
	schema.RegisterWireType(&counterState{})
	f := newFixture(t, 2, 4)

	// Put some state into every room.
	for i, room := range f.rooms {
		for j := 0; j <= i; j++ {
			if _, err := f.rt.Submit(room, "inc"); err != nil {
				t.Fatal(err)
			}
		}
	}
	victim := f.rt.Cluster().Servers()[0].ID()
	onVictim := f.rt.Directory().HostedOn(victim)
	if len(onVictim) == 0 {
		t.Fatal("test setup: victim hosts nothing")
	}

	// Periodic checkpoint, then the server fails.
	n, err := f.mgr.CheckpointServer(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("checkpoint captured nothing")
	}
	report, err := f.mgr.RecoverServerFailure(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Lost) != len(onVictim) {
		t.Fatalf("lost = %v; want %v", report.Lost, onVictim)
	}
	if len(report.Restored) == 0 {
		t.Fatal("nothing restored from checkpoints")
	}
	if f.rt.Cluster().Size() != 1 {
		t.Fatalf("cluster size = %d; want 1", f.rt.Cluster().Size())
	}

	// Every room still works and checkpointed counts survived.
	for i, room := range f.rooms {
		res, err := f.rt.Submit(room, "get")
		if err != nil {
			t.Fatalf("room %d after recovery: %v", i, err)
		}
		if res.(int) != i+1 {
			t.Fatalf("room %d count = %v; want %d (checkpointed state)", i, res, i+1)
		}
		if srv, _ := f.rt.Directory().Locate(room); srv == victim {
			t.Fatalf("room %d still mapped to the failed server", i)
		}
	}
}

func TestRecoverServerFailureWithoutCheckpoints(t *testing.T) {
	f := newFixture(t, 2, 2)
	for _, room := range f.rooms {
		if _, err := f.rt.Submit(room, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	victim := f.rt.Cluster().Servers()[0].ID()
	lost := f.rt.Directory().HostedOn(victim)

	report, err := f.mgr.RecoverServerFailure(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Reset) != len(lost) {
		t.Fatalf("reset = %v; want all %d lost contexts", report.Reset, len(lost))
	}
	// Un-checkpointed contexts restart from factory state: the counter is 0.
	for _, id := range report.Reset {
		res, err := f.rt.Submit(id, "get")
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != 0 {
			t.Fatalf("reset context count = %v; want 0", res)
		}
	}
}

func TestLatestSnapshotKeyPicksNewest(t *testing.T) {
	schema.RegisterWireType(&counterState{})
	f := newFixture(t, 1, 1)
	room := f.rooms[0]
	var lastKey string
	for i := 0; i < 3; i++ {
		if _, err := f.rt.Submit(room, "inc"); err != nil {
			t.Fatal(err)
		}
		k, _, err := f.mgr.Snapshot(room)
		if err != nil {
			t.Fatal(err)
		}
		lastKey = k
	}
	index, err := f.mgr.latestSnapshots()
	got, ok := index[room]
	if err != nil || !ok {
		t.Fatalf("latest = %v %v", ok, err)
	}
	if got != lastKey {
		t.Fatalf("latest = %q; want %q", got, lastKey)
	}
}
