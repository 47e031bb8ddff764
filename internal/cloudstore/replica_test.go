package cloudstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Replica-plane ops as the tests below issue them.
func promote(d Doer, part int, epoch uint64) error {
	_, err := d.Do(Op{Kind: OpPromote, Fence: &Fence{Part: part, Epoch: epoch}})
	return err
}

func apply(d Doer, part int, epoch uint64, c Commit) error {
	_, err := d.Do(Op{Kind: OpApply, Fence: &Fence{Part: part, Epoch: epoch}, Commit: c})
	return err
}

func fenceEpoch(d Doer, part int) uint64 {
	res, _ := d.Do(Op{Kind: OpFenceEpoch, Fence: &Fence{Part: part}})
	return res.Version
}

// Satellite bugfix pin: CAS on a missing key with expect != 0 must not
// masquerade as a live-version conflict ("have v0") — the message says the
// key is missing, while the error still unwraps to ErrVersionMismatch so
// Retry semantics are unchanged.
func TestCASMissingKeyDistinctFromConflict(t *testing.T) {
	s := New()
	_, err := s.CAS("ghost", 7, []byte("x"))
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v; want ErrVersionMismatch", err)
	}
	if strings.Contains(err.Error(), "v0") {
		t.Fatalf("missing-key CAS error %q formats phantom version v0", err)
	}
	if !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing-key CAS error %q does not say the key is missing", err)
	}

	// Real conflict keeps the have/want shape.
	v, _ := s.Put("live", []byte("a"))
	_, err = s.CAS("live", v+100, []byte("b"))
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v; want ErrVersionMismatch", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("have v%d", v)) {
		t.Fatalf("conflict error %q lost the have/want diagnostics", err)
	}
}

func TestReplicatedWritesReachFollower(t *testing.T) {
	prim, fol := New(), New()
	r := NewReplicated(0, prim, fol)

	v, err := r.Put("map/1", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CAS("map/1", v, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutBatch(map[string][]byte{"map/2": []byte("x"), "map/3": []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateBatch(map[string][]byte{"map/4": []byte("z")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("map/3"); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteBatch([]string{"map/4", "map/ghost"}); err != nil {
		t.Fatal(err)
	}

	// The follower must hold exactly the primary's surviving state, with the
	// primary's versions.
	for _, key := range []string{"map/1", "map/2"} {
		pv, pver, err := prim.Get(key)
		if err != nil {
			t.Fatalf("primary %s: %v", key, err)
		}
		fv, fver, err := fol.Get(key)
		if err != nil {
			t.Fatalf("follower %s: %v", key, err)
		}
		if string(pv) != string(fv) || pver != fver {
			t.Fatalf("%s: primary %q v%d, follower %q v%d", key, pv, pver, fv, fver)
		}
	}
	for _, key := range []string{"map/3", "map/4"} {
		if _, _, err := fol.Get(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("follower still has deleted %s (err=%v)", key, err)
		}
	}
}

func TestReplicatedSemanticErrorsPassThrough(t *testing.T) {
	r := NewReplicated(0, New(), New())
	if _, _, err := r.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get err = %v; want ErrNotFound", err)
	}
	if _, err := r.CAS("ghost", 3, nil); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("CAS err = %v; want ErrVersionMismatch", err)
	}
	if err := r.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete err = %v; want ErrNotFound", err)
	}
	// No spurious failover happened while surfacing them.
	if e, p := r.View(); e != 1 || p != 0 {
		t.Fatalf("view moved to epoch %d primary %d on semantic errors", e, p)
	}
}

func TestReplicatedFailover(t *testing.T) {
	prim, fol, fol2 := New(), New(), New()
	r := NewReplicated(0, prim, fol, fol2)

	if _, err := r.Put("wal/x", []byte("before")); err != nil {
		t.Fatal(err)
	}
	prim.Fail()

	v, err := r.Put("wal/x", []byte("after"))
	if err != nil {
		t.Fatalf("write did not survive primary loss: %v", err)
	}
	if e, p := r.View(); e != 2 || p != 1 {
		t.Fatalf("view = epoch %d primary %d; want epoch 2 primary 1", e, p)
	}
	got, ver, err := fol.Get("wal/x")
	if err != nil || string(got) != "after" || ver != v {
		t.Fatalf("promoted follower has %q v%d (err=%v); want after v%d", got, ver, err, v)
	}
	// The post-failover write reached a majority: the surviving follower
	// holds it too.
	got3, _, err := fol2.Get("wal/x")
	if err != nil || string(got3) != "after" {
		t.Fatalf("surviving follower has %q (err=%v); want after", got3, err)
	}
	// Reads route to the promoted follower too.
	got2, _, err := r.Get("wal/x")
	if err != nil || string(got2) != "after" {
		t.Fatalf("read after failover: %q, %v", got2, err)
	}
}

// Regression pin for the acked-but-divergent-write hole: a write applied on
// the primary but on no follower must NOT be acknowledged — with every
// follower unreachable there is no majority, so the client gets
// ErrUnavailable instead of an ack that a failover could silently lose.
func TestReplicatedNoAckWithoutFollowerQuorum(t *testing.T) {
	prim, f1, f2 := New(), New(), New()
	r := NewReplicated(0, prim, f1, f2)

	// One follower down: primary + surviving follower is still a majority
	// of three, so writes keep flowing.
	f2.Fail()
	if _, err := r.Put("q/a", []byte("v")); err != nil {
		t.Fatalf("write with 2/3 replicas up: %v", err)
	}
	if got, _, err := f1.Get("q/a"); err != nil || string(got) != "v" {
		t.Fatalf("surviving follower has %q (err=%v); want v", got, err)
	}

	// Both followers down: the primary alone is a minority. The write must
	// fail typed, and failover must also refuse (no majority can hold the
	// new fence either).
	f1.Fail()
	if _, err := r.Put("q/b", []byte("v")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("minority write err = %v; want ErrUnavailable", err)
	}
}

// Regression pin for the fence: a client still acting for a deposed primary
// must not get its writes acknowledged — the follower's fence refuses the
// stale epoch, and the stale client recovers by refreshing its view.
func TestReplicatedStalePrimaryIsFenced(t *testing.T) {
	prim, fol := New(), New()
	fresh := NewReplicated(0, prim, fol)
	stale := NewReplicated(0, prim, fol)

	if _, err := stale.Put("map/1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// `fresh` deposes the primary (as if it observed a primary failure).
	if err := promote(fol, 0, 2); err != nil {
		t.Fatal(err)
	}
	fresh.adopt(2)
	if _, err := fresh.Put("map/1", []byte("fresh")); err != nil {
		t.Fatal(err)
	}

	// The stale client still believes epoch 1 / primary 0. Its raw fenced
	// apply must be refused outright…
	err := apply(fol, 0, 1, Commit{Sets: []KV{{Key: "map/1", Val: []byte("stale"), Ver: 99}}})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale apply err = %v; want ErrFenced", err)
	}
	if got, _, _ := fol.Get("map/1"); string(got) != "fresh" {
		t.Fatalf("fenced apply mutated the follower: %q", got)
	}

	// …and its full write path must chase the fence to the new primary and
	// only then be acknowledged.
	if _, err := stale.Put("map/1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if e, p := stale.View(); e != 2 || p != 1 {
		t.Fatalf("stale client stuck at epoch %d primary %d", e, p)
	}
	got, _, err := fol.Get("map/1")
	if err != nil || string(got) != "v2" {
		t.Fatalf("new primary has %q (err=%v); want v2", got, err)
	}
}

func TestReplicatedApplyIdempotentAndOrdered(t *testing.T) {
	fol := New()
	c1 := Commit{Sets: []KV{{Key: "a", Val: []byte("new"), Ver: 10}}}
	c0 := Commit{Sets: []KV{{Key: "a", Val: []byte("old"), Ver: 9}}}
	if err := apply(fol, 0, 1, c1); err != nil {
		t.Fatal(err)
	}
	// A late/reordered older commit must not regress the key.
	if err := apply(fol, 0, 1, c0); err != nil {
		t.Fatal(err)
	}
	// A duplicate of the newest must be a no-op.
	if err := apply(fol, 0, 1, c1); err != nil {
		t.Fatal(err)
	}
	got, ver, err := fol.Get("a")
	if err != nil || string(got) != "new" || ver != 10 {
		t.Fatalf("follower a = %q v%d (err=%v); want new v10", got, ver, err)
	}
	// A tombstone newer than the set wins; an older one would not.
	if err := apply(fol, 0, 1, Commit{Dels: []KD{{Key: "a", Ver: 11}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fol.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete did not apply: %v", err)
	}
	// Fresh versions on the follower must allocate above applied versions.
	v, _ := fol.Put("b", nil)
	if v <= 11 {
		t.Fatalf("follower allocated v%d under the applied high-water 11", v)
	}
}

func TestReplicatedAllReplicasDown(t *testing.T) {
	prim, fol := New(), New()
	r := NewReplicated(0, prim, fol)
	prim.Fail()
	fol.Fail()
	if _, err := r.Put("k", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v; want ErrUnavailable", err)
	}
}

func TestReplicatedConcurrentClientsConvergeThroughFailover(t *testing.T) {
	prim, fol, fol2 := New(), New(), New()
	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		r := NewReplicated(0, prim, fol, fol2)
		wg.Add(1)
		go func(c int, r *Replicated) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := r.Put(fmt.Sprintf("k/%d", c), []byte(fmt.Sprintf("%d", i))); err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, i, err)
					return
				}
			}
		}(c, r)
	}
	// Depose the initial primary mid-traffic.
	prim.Fail()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every client's final value must be on the promoted follower.
	for c := 0; c < clients; c++ {
		got, _, err := fol.Get(fmt.Sprintf("k/%d", c))
		if err != nil || string(got) != fmt.Sprintf("%d", rounds-1) {
			t.Fatalf("client %d final = %q (err=%v)", c, got, err)
		}
	}
}

func TestPartitionedRoutesPrefixGroupsTogether(t *testing.T) {
	a, b := New(), New()
	p := NewPartitioned(a, b)
	// All members of one prefix group land on one partition.
	first := p.PartitionOf("replog/rec/00000000000000000001")
	for i := 2; i < 40; i++ {
		k := fmt.Sprintf("replog/rec/%020d", i)
		if p.PartitionOf(k) != first {
			t.Fatalf("%s routed off-partition from its prefix group", k)
		}
	}
	// And the partitions genuinely split the keyspace: different groups
	// reach different stores.
	seen := map[int]bool{}
	for _, g := range []string{"map/1", "replog/rec/1", "snapshot/7/1", "wal/migration/3", "replog/head"} {
		seen[p.PartitionOf(g)] = true
	}
	if len(seen) != 2 {
		t.Fatalf("all sample groups hashed to one partition; routing is degenerate")
	}
}

func TestPartitionedOpsAndListMerge(t *testing.T) {
	a, b := New(), New()
	p := NewPartitioned(a, b)
	keys := []string{"map/1", "snapshot/9/3", "replog/rec/5", "wal/migration/2"}
	for _, k := range keys {
		if _, err := p.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		got, _, err := p.Get(k)
		if err != nil || string(got) != k {
			t.Fatalf("%s: %q, %v", k, got, err)
		}
	}
	all, err := p.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(keys) {
		t.Fatalf("List merged %d keys; want %d (%v)", len(all), len(keys), all)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatalf("merged List not sorted: %v", all)
		}
	}
	// Data is actually sharded, not mirrored.
	ra, _ := a.List("")
	rb, _ := b.List("")
	if len(ra) == 0 || len(rb) == 0 || len(ra)+len(rb) != len(keys) {
		t.Fatalf("shards hold %d + %d keys; want a real split of %d", len(ra), len(rb), len(keys))
	}
}

func TestPartitionedCreateBatchRollsBackOnCollision(t *testing.T) {
	a, b := New(), New()
	p := NewPartitioned(a, b)
	// Find two keys on different partitions.
	k0, k1 := "map/1", ""
	for i := 2; i < 100; i++ {
		k := fmt.Sprintf("snapshot/%d/1", i)
		if p.PartitionOf(k) != p.PartitionOf(k0) {
			k1 = k
			break
		}
	}
	if k1 == "" {
		t.Fatal("could not find keys on two partitions")
	}
	// Pre-existing k1 makes the second sub-batch collide.
	if _, err := p.Put(k1, []byte("existing")); err != nil {
		t.Fatal(err)
	}
	_, err := p.CreateBatch(map[string][]byte{k0: []byte("x"), k1: []byte("y")})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v; want ErrVersionMismatch", err)
	}
	// The first sub-batch was rolled back, and the existing key survives.
	if _, _, err := p.Get(k0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rollback left %s behind (err=%v)", k0, err)
	}
	if got, _, _ := p.Get(k1); string(got) != "existing" {
		t.Fatalf("collision overwrote existing key: %q", got)
	}
	// A clean retry then succeeds.
	if _, err := p.CreateBatch(map[string][]byte{k0: []byte("x")}); err != nil {
		t.Fatal(err)
	}
}

func TestBackendRegistry(t *testing.T) {
	be, err := Open("memory")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open("no-such-backend"); err == nil {
		t.Fatal("unknown backend must fail to open")
	}
	if _, err := Open("disk"); err == nil {
		t.Fatal("disk backend without a directory must fail to open")
	}
	names := Backends()
	want := map[string]bool{"memory": false, "disk": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, ok := range want {
		if !ok {
			t.Fatalf("backend %q not registered (have %v)", n, names)
		}
	}
}

func TestDiskBackendReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := d.Put("map/1", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutBatch(map[string][]byte{"map/2": []byte("b"), "map/3": []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("map/3"); err != nil {
		t.Fatal(err)
	}
	if err := promote(d, 4, 7); err != nil {
		t.Fatal(err)
	}
	if err := apply(d, 4, 7, Commit{Sets: []KV{{Key: "map/9", Val: []byte("r"), Ver: 40}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, ver, err := re.Get("map/1")
	if err != nil || string(got) != "a" || ver != v1 {
		t.Fatalf("map/1 = %q v%d (err=%v); want a v%d", got, ver, err, v1)
	}
	if _, _, err := re.Get("map/3"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key survived restart: %v", err)
	}
	// The fence epoch survives restart — a restarted replica must keep
	// refusing deposed epochs.
	if e := fenceEpoch(re, 4); e != 7 {
		t.Fatalf("fence after restart = %d; want 7", e)
	}
	if err := apply(re, 4, 6, Commit{}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale apply after restart err = %v; want ErrFenced", err)
	}
	// Replicated applies survive too, and version allocation stays above
	// the journal's high-water mark.
	if got, ver, err := re.Get("map/9"); err != nil || string(got) != "r" || ver != 40 {
		t.Fatalf("map/9 = %q v%d (err=%v); want r v40", got, ver, err)
	}
	if v, _ := re.Put("map/new", nil); v <= 40 {
		t.Fatalf("restart allocated v%d under journal high-water 40", v)
	}
}

// Regression pin: an Apply that outruns the replica's fence must journal the
// learned epoch — a restarted replica that forgot it would accept writes
// from a deposed primary.
func TestDiskBackendPersistsApplyLearnedFence(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// No Promote ever ran here: the fence is learned from the commit stream.
	if err := apply(d, 2, 9, Commit{Sets: []KV{{Key: "a", Val: []byte("x"), Ver: 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if e := fenceEpoch(re, 2); e != 9 {
		t.Fatalf("fence after restart = %d; want the Apply-learned 9", e)
	}
	if err := apply(re, 2, 8, Commit{}); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale apply after restart err = %v; want ErrFenced", err)
	}
}

// Regression pin: fence records carry an epoch, not a key version — replay
// must not fold them into the version high-water mark or a large epoch would
// inflate every version allocated after restart.
func TestDiskBackendFenceEpochDoesNotInflateVersions(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Put("k", []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := promote(d, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	v2, err := re.Put("k2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v+1 {
		t.Fatalf("post-restart version = %d; want %d (epoch 1000 leaked into the version counter)", v2, v+1)
	}
}

func TestDiskBackendRejectsCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.journal")
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir); err == nil {
		t.Fatal("corrupt journal must fail to open")
	}
}

// A replica killed mid-append leaves a final journal line with no newline: a
// record nobody was acked for. Reopening drops it and truncates the file, so
// the next append starts on its own line and the reopen after that is clean.
// A malformed line with data after it is not a torn tail and stays a refusal.
func TestDiskBackendDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.journal")
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, err := d.Put(k, []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("reopen over a torn final line: %v", err)
	}
	if keys, _ := re.List(""); len(keys) != 2 {
		t.Fatalf("keys after the torn reopen = %v; want k1 and k2", keys)
	}
	if _, err := re.Put("k4", []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	if keys, _ := again.List(""); strings.Join(keys, ",") != "k1,k2,k4" {
		t.Fatalf("keys after the second reopen = %v; want k1, k2, k4", keys)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.SplitAfter(string(whole), "\n")
	midTorn := lines[0] + lines[1][:len(lines[1])-9] + "\n" + lines[2]
	if err := os.WriteFile(path, []byte(midTorn), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(dir); err == nil {
		t.Fatal("a malformed line followed by a good one must fail to open")
	}
}

// The disk+fsync variant is the same journal with per-commit fsync: it
// must open through the spec registry, ack writes only after a durable
// journal append, and replay identically to the plain disk backend.
func TestDiskFsyncBackendOpensAndReplays(t *testing.T) {
	dir := t.TempDir()
	be, err := Open("disk+fsync:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if !be.(*DiskStore).fsync {
		t.Fatal("disk+fsync spec did not enable per-commit fsync")
	}
	if _, err := be.Put("map/1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := promote(be, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open("disk+fsync:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, _, err := re.Get("map/1"); err != nil || string(got) != "a" {
		t.Fatalf("map/1 = %q err=%v; want a", got, err)
	}
	if e := fenceEpoch(re, 2); e != 5 {
		t.Fatalf("fence after restart = %d; want 5", e)
	}
}
