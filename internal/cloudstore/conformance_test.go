package cloudstore_test

// The one store surface, checked once: a conformance script every Doer must
// pass identically, the Store.Do kind × fence-epoch table, and a per-kind
// wire round trip. This is an external test package so it can put
// node.RemoteStore → mesh → node.StoreServer next to the in-package Doers.

import (
	"errors"
	"reflect"
	"testing"

	. "aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/node"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// remoteStore serves st from a StoreServer on a fresh in-memory mesh and
// returns the store handle of a node that keeps no store of its own: the
// RemoteStore the fleet wires, so every op crosses the full
// encode → handle → Do → schema.Err path.
func remoteStore(t *testing.T, st Backend) Doer {
	t.Helper()
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	srv, err := node.ServeStore(mesh, node.StoreIDBase+1, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	s := schema.New()
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(s, ownership.NewGraph(), cluster.New(transport.NewSim(transport.SimConfig{})), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.Start(mesh, node.Config{ID: 999, Runtime: rt, StoreNode: node.StoreIDBase + 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close(); rt.Close() })
	return n.Store().(*node.RemoteStore)
}

// doers are the five implementations of the surface. replica says whether
// the Doer is a replica (executes OpApply/OpPromote/OpFenceEpoch) or a
// client of replicas (must refuse them); reopen, where the implementation
// is durable, restarts it on the same state.
var doers = []struct {
	name  string
	build func(t *testing.T) (d Doer, replica bool, reopen func() Doer)
}{
	{"Store", func(t *testing.T) (Doer, bool, func() Doer) {
		return New(), true, nil
	}},
	{"DiskStore", func(t *testing.T) (Doer, bool, func() Doer) {
		dir := t.TempDir()
		open := func() *DiskStore {
			d, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}
		d := open()
		return d, true, func() Doer {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			return open()
		}
	}},
	{"Replicated/3xStore", func(t *testing.T) (Doer, bool, func() Doer) {
		return NewReplicated(0, New(), New(), New()), false, nil
	}},
	{"Partitioned/2xStore", func(t *testing.T) (Doer, bool, func() Doer) {
		return NewPartitioned(New(), New()), false, nil
	}},
	{"RemoteStore/mesh/StoreServer", func(t *testing.T) (Doer, bool, func() Doer) {
		return remoteStore(t, New()), true, nil
	}},
}

// script drives one Doer through every Kind.
type script struct {
	t *testing.T
	d Doer
}

func (s script) ok(op Op) Result {
	s.t.Helper()
	res, err := s.d.Do(op)
	if err != nil {
		s.t.Fatalf("%v %q: %v", op.Kind, op.Key, err)
	}
	return res
}

func (s script) fails(op Op, want error) Result {
	s.t.Helper()
	res, err := s.d.Do(op)
	if !errors.Is(err, want) {
		s.t.Fatalf("%v %q: err = %v; want %v", op.Kind, op.Key, err, want)
	}
	return res
}

func (s script) get(key, want string, ver uint64) {
	s.t.Helper()
	res := s.ok(Op{Kind: OpGet, Key: key})
	if string(res.Value) != want || res.Version != ver {
		s.t.Fatalf("get %q = %q v%d; want %q v%d", key, res.Value, res.Version, want, ver)
	}
}

func (s script) list(prefix string, want ...string) {
	s.t.Helper()
	res := s.ok(Op{Kind: OpList, Key: prefix})
	if len(res.Keys)+len(want) > 0 && !reflect.DeepEqual(res.Keys, want) {
		s.t.Fatalf("list %q = %v; want %v", prefix, res.Keys, want)
	}
}

// TestDoerConformance runs one script over all five implementations. Keys
// of the version-sensitive steps share the prefix group "g", so on a
// Partitioned they land on one partition and its version sequence behaves
// exactly like a single store's.
func TestDoerConformance(t *testing.T) {
	for _, impl := range doers {
		t.Run(impl.name, func(t *testing.T) {
			d, replica, reopen := impl.build(t)
			s := script{t, d}

			// Semantic sentinels on an empty store.
			s.fails(Op{Kind: OpGet, Key: "g/a"}, ErrNotFound)
			s.fails(Op{Kind: OpDelete, Key: "g/a"}, ErrNotFound)
			s.fails(Op{Kind: OpCAS, Key: "g/a", Expect: 3, Value: []byte("x")}, ErrVersionMismatch)
			s.list("g/")

			// Put, Get, CAS update and CAS create.
			v1 := s.ok(Op{Kind: OpPut, Key: "g/a", Value: []byte("1")}).Version
			if v1 == 0 {
				t.Fatal("put assigned version 0")
			}
			s.get("g/a", "1", v1)
			v2 := s.ok(Op{Kind: OpCAS, Key: "g/a", Expect: v1, Value: []byte("2")}).Version
			if v2 != v1+1 {
				t.Fatalf("cas version = %d; want %d", v2, v1+1)
			}
			s.fails(Op{Kind: OpCAS, Key: "g/a", Expect: v1, Value: []byte("3")}, ErrVersionMismatch)
			s.get("g/a", "2", v2)
			vb := s.ok(Op{Kind: OpCAS, Key: "g/b", Value: []byte("b")}).Version
			s.fails(Op{Kind: OpCAS, Key: "g/b", Value: []byte("again")}, ErrVersionMismatch)

			// Batches assign contiguous versions in sorted key order and
			// return the highest.
			last := s.ok(Op{Kind: OpPutBatch, Entries: map[string][]byte{"g/d": []byte("d"), "g/c": []byte("c")}}).Version
			if last != vb+2 {
				t.Fatalf("putbatch version = %d; want %d", last, vb+2)
			}
			s.get("g/c", "c", last-1)
			s.get("g/d", "d", last)
			// CreateBatch is all-or-nothing.
			s.fails(Op{Kind: OpCreateBatch, Entries: map[string][]byte{"g/e": nil, "g/c": nil}}, ErrVersionMismatch)
			s.fails(Op{Kind: OpGet, Key: "g/e"}, ErrNotFound)
			last = s.ok(Op{Kind: OpCreateBatch, Entries: map[string][]byte{"g/e": []byte("e"), "g/f": []byte("f")}}).Version
			s.get("g/e", "e", last-1)
			s.get("g/f", "f", last)
			s.list("g/", "g/a", "g/b", "g/c", "g/d", "g/e", "g/f")
			s.list("nope/")

			// Delete returns the tombstone version; a batch delete consumes
			// one version per key, present or missing.
			if vd := s.ok(Op{Kind: OpDelete, Key: "g/f"}).Version; vd != last+1 {
				t.Fatalf("delete version = %d; want %d", vd, last+1)
			}
			s.fails(Op{Kind: OpGet, Key: "g/f"}, ErrNotFound)
			if vd := s.ok(Op{Kind: OpDeleteBatch, Keys: []string{"g/e", "g/ghost2", "g/ghost1"}}).Version; vd != last+4 {
				t.Fatalf("deletebatch version = %d; want %d (missing keys consume versions)", vd, last+4)
			}
			s.fails(Op{Kind: OpGet, Key: "g/e"}, ErrNotFound)

			// Empty batches are no-ops through Do and short-circuit in the
			// typed API; neither consumes a version.
			for _, k := range []Kind{OpPutBatch, OpCreateBatch, OpDeleteBatch} {
				if res := s.ok(Op{Kind: k}); !reflect.DeepEqual(res, Result{}) {
					t.Fatalf("empty %v = %+v; want zero", k, res)
				}
			}
			api := d.(API)
			if v, err := api.PutBatch(nil); v != 0 || err != nil {
				t.Fatalf("typed empty PutBatch = %d, %v", v, err)
			}
			if v, err := api.CreateBatch(nil); v != 0 || err != nil {
				t.Fatalf("typed empty CreateBatch = %d, %v", v, err)
			}
			if err := api.DeleteBatch(nil); err != nil {
				t.Fatalf("typed empty DeleteBatch: %v", err)
			}
			if v := s.ok(Op{Kind: OpPut, Key: "g/z", Value: []byte("z")}).Version; v != last+5 {
				t.Fatalf("put after empty batches = v%d; want v%d", v, last+5)
			}

			// A batch spanning prefix groups (two partitions, on a
			// Partitioned) still reads back and prunes as one.
			s.ok(Op{Kind: OpPutBatch, Entries: map[string][]byte{"g/x": []byte("x"), "h/y": []byte("y")}})
			s.list("", "g/a", "g/b", "g/c", "g/d", "g/x", "g/z", "h/y")
			s.ok(Op{Kind: OpDeleteBatch, Keys: []string{"g/x", "h/y"}})
			want := []string{"g/a", "g/b", "g/c", "g/d", "g/z"}
			s.list("", want...)

			// The replica plane: partition 7's fence, on replicas only.
			fence := func(epoch uint64) *Fence { return &Fence{Part: 7, Epoch: epoch} }
			if !replica {
				for _, k := range []Kind{OpApply, OpPromote, OpFenceEpoch} {
					if _, err := d.Do(Op{Kind: k, Fence: fence(1)}); err == nil {
						t.Fatalf("a client of replicas executed %v", k)
					}
				}
				return
			}
			for _, k := range []Kind{OpApply, OpPromote, OpFenceEpoch} {
				if _, err := d.Do(Op{Kind: k}); err == nil {
					t.Fatalf("%v without a fence was executed", k)
				}
			}
			if e := s.ok(Op{Kind: OpFenceEpoch, Fence: fence(0)}).Version; e != 0 {
				t.Fatalf("virgin fence = %d", e)
			}
			if e := s.ok(Op{Kind: OpPromote, Fence: fence(3)}).Version; e != 3 {
				t.Fatalf("promote returned fence %d; want 3", e)
			}
			if e := s.ok(Op{Kind: OpPromote, Fence: fence(3)}).Version; e != 3 {
				t.Fatalf("idempotent re-promote returned fence %d; want 3", e)
			}
			// A refusal carries the accepted epoch, and a fenced op whose
			// epoch is zero is fenced all the same.
			if e := s.fails(Op{Kind: OpPromote, Fence: fence(2)}, ErrFenced).Version; e != 3 {
				t.Fatalf("refused promote reported fence %d; want 3", e)
			}
			s.fails(Op{Kind: OpGet, Key: "g/a", Fence: fence(0)}, ErrFenced)
			s.fails(Op{Kind: OpPut, Key: "g/a", Fence: fence(2)}, ErrFenced)
			if res := s.ok(Op{Kind: OpGet, Key: "g/a", Fence: fence(3)}); string(res.Value) != "2" {
				t.Fatalf("fenced get = %q", res.Value)
			}
			if e := s.ok(Op{Kind: OpFenceEpoch, Fence: &Fence{Part: 8}}).Version; e != 0 {
				t.Fatalf("partition 8 fence = %d; fences are per partition", e)
			}
			// Apply installs primary-assigned versions; stale epochs are
			// refused without touching data; fresh versions allocate above.
			commit := Commit{Sets: []KV{{Key: "g/r", Val: []byte("r"), Ver: 1000}}, Dels: []KD{{Key: "g/z", Ver: 1001}}}
			s.ok(Op{Kind: OpApply, Fence: fence(3), Commit: commit})
			s.get("g/r", "r", 1000)
			s.fails(Op{Kind: OpGet, Key: "g/z"}, ErrNotFound)
			s.fails(Op{Kind: OpApply, Fence: fence(2), Commit: Commit{Dels: []KD{{Key: "g/r", Ver: 2000}}}}, ErrFenced)
			s.get("g/r", "r", 1000)
			if v := s.ok(Op{Kind: OpPut, Key: "g/n", Value: nil}).Version; v <= 1001 {
				t.Fatalf("put after apply = v%d; want above the applied high-water 1001", v)
			}

			if reopen == nil {
				return
			}
			s.d = reopen()
			s.list("", "g/a", "g/b", "g/c", "g/d", "g/n", "g/r")
			s.get("g/a", "2", v2)
			s.get("g/r", "r", 1000)
			if e := s.ok(Op{Kind: OpFenceEpoch, Fence: fence(0)}).Version; e != 3 {
				t.Fatalf("fence after reopen = %d; want 3", e)
			}
			s.fails(Op{Kind: OpPut, Key: "g/a", Fence: fence(2)}, ErrFenced)
		})
	}
}

// seed is the state the per-kind tables run against: key "k" at version 1,
// partition 0 fenced at epoch 5.
func seed(t *testing.T, d Doer) {
	t.Helper()
	s := script{t, d}
	if v := s.ok(Op{Kind: OpPut, Key: "k", Value: []byte("v")}).Version; v != 1 {
		t.Fatalf("seed put = v%d; want v1", v)
	}
	s.ok(Op{Kind: OpPromote, Fence: &Fence{Part: 0, Epoch: 5}})
}

// rows has one successful operation per Kind against the seeded state. A
// Kind without a row fails both tables below.
var rows = map[Kind]Op{
	OpGet:         {Key: "k"},
	OpList:        {Key: ""},
	OpPut:         {Key: "k", Value: []byte("w")},
	OpPutBatch:    {Entries: map[string][]byte{"k": []byte("w"), "n": []byte("x")}},
	OpCreateBatch: {Entries: map[string][]byte{"n": []byte("x")}},
	OpCAS:         {Key: "k", Expect: 1, Value: []byte("w")},
	OpDelete:      {Key: "k"},
	OpDeleteBatch: {Keys: []string{"k", "ghost"}},
	OpApply:       {Commit: Commit{Sets: []KV{{Key: "k", Val: []byte("w"), Ver: 40}}}},
	OpPromote:     {},
	OpFenceEpoch:  {},
}

func row(t *testing.T, k Kind, fence *Fence) Op {
	t.Helper()
	op, ok := rows[k]
	if !ok {
		t.Fatalf("%v has no row in the per-kind table", k)
	}
	op.Kind, op.Fence = k, fence
	return op
}

// TestStoreDoFenceTable is kind × {stale, zero, equal, newer} epoch at the
// one place the fence is enforced. It runs on a DiskStore so "writes journal
// the advance" is checked by reopening.
func TestStoreDoFenceTable(t *testing.T) {
	epochs := []struct {
		name  string
		epoch uint64
	}{{"stale", 2}, {"zero", 0}, {"equal", 5}, {"newer", 9}}
	fenceOf := func(t *testing.T, d Doer) uint64 {
		t.Helper()
		return script{t, d}.ok(Op{Kind: OpFenceEpoch, Fence: &Fence{}}).Version
	}
	for _, k := range AllKinds() {
		for _, e := range epochs {
			t.Run(k.String()+"/"+e.name, func(t *testing.T) {
				dir := t.TempDir()
				d, err := OpenDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				seed(t, d)
				res, err := d.Do(row(t, k, &Fence{Part: 0, Epoch: e.epoch}))

				wantFence := uint64(5)
				switch {
				case k == OpFenceEpoch:
					// Reports the fence; its own epoch is not gated.
					if err != nil || res.Version != 5 {
						t.Fatalf("fence-epoch = %d, %v; want 5", res.Version, err)
					}
				case e.epoch < 5:
					if !errors.Is(err, ErrFenced) {
						t.Fatalf("err = %v; want ErrFenced", err)
					}
					if res.Version != 5 {
						t.Fatalf("refusal reported fence %d; want the accepted 5", res.Version)
					}
					script{t, d}.get("k", "v", 1) // refused ops touch nothing
				default:
					if err != nil {
						t.Fatalf("epoch %d refused: %v", e.epoch, err)
					}
					if !k.Reads() {
						wantFence = e.epoch // writes advance; reads never do
					}
				}
				if got := fenceOf(t, d); got != wantFence {
					t.Fatalf("fence = %d after %v at epoch %d; want %d", got, k, e.epoch, wantFence)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if got := fenceOf(t, re); got != wantFence {
					t.Fatalf("fence after reopen = %d; want %d (advances must be journaled)", got, wantFence)
				}
			})
		}
	}
}

// A fence advance that rides in on a refused mutation still happened, so it
// must be journaled like any other: the replica has promised to refuse the
// older epochs from then on.
func TestFenceAdvanceJournaledWhenMutationRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, d)
	s := script{t, d}
	s.fails(Op{Kind: OpCAS, Key: "k", Expect: 77, Fence: &Fence{Part: 0, Epoch: 9}}, ErrVersionMismatch)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	s.d = re
	if e := s.ok(Op{Kind: OpFenceEpoch, Fence: &Fence{}}).Version; e != 9 {
		t.Fatalf("fence after reopen = %d; want the 9 the refused CAS carried", e)
	}
}

// TestWireRoundTripEveryKind runs every Kind's row directly on a Store and
// through RemoteStore → mesh → StoreServer on an identically seeded one: the
// outcomes must be equal, so every Op and Result field survives the frame —
// including a Fence whose fields are all zero. With the replica down, every
// kind must surface ErrUnavailable across the wire (a downed replica must
// look downed, or failover never triggers).
func TestWireRoundTripEveryKind(t *testing.T) {
	for _, k := range AllKinds() {
		t.Run(k.String(), func(t *testing.T) {
			local, served := New(), New()
			remote := remoteStore(t, served)
			seed(t, local)
			seed(t, remote)
			for _, fence := range []*Fence{{Part: 0, Epoch: 5}, {}} {
				op := row(t, k, fence)
				want, wantErr := local.Do(op)
				got, err := remote.Do(op)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fence %+v: remote = %+v; local = %+v", *fence, got, want)
				}
				if (err == nil) != (wantErr == nil) || errors.Is(wantErr, ErrFenced) != errors.Is(err, ErrFenced) {
					t.Fatalf("fence %+v: remote err = %v; local err = %v", *fence, err, wantErr)
				}
			}
			served.Fail()
			if _, err := remote.Do(row(t, k, &Fence{Part: 0, Epoch: 5})); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("err = %v; want ErrUnavailable", err)
			}
		})
	}
}
