package replication

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// testSchema declares the minimal two-class topology the plane tests build:
// Root contexts own Leaf contexts.
func testSchema() *schema.Schema {
	s := schema.New()
	root := s.MustDeclareClass("Root", nil)
	root.MustDeclareMethod("noop", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Value{}, nil
	})
	leaf := s.MustDeclareClass("Leaf", nil)
	leaf.MustDeclareMethod("noop", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Value{}, nil
	})
	return s
}

func TestRecKeysSortInSequenceOrder(t *testing.T) {
	if recKey(2) >= recKey(10) {
		t.Fatalf("record keys must sort numerically: %q vs %q", recKey(2), recKey(10))
	}
	if recKey(999) >= recKey(1000) {
		t.Fatalf("record keys must sort numerically: %q vs %q", recKey(999), recKey(1000))
	}
}

// everyOp is a record carrying one mutation of each Op, with every field
// its Op uses set, Profile's floats included.
func everyOp() Record {
	return Record{Seq: 1 << 40, Origin: 3, Muts: []Mutation{
		{Op: OpNewContext, Class: "Leaf", Owners: []ownership.ID{1, 2}, Server: 2},
		{Op: OpAddEdge, Parent: 1, Child: 400},
		{Op: OpRemoveEdge, Parent: 1, Child: 400},
		{Op: OpDetach, Target: 400},
		{Op: OpRemoveContext, Target: 1 << 33},
		{Op: OpAddServer, Profile: cluster.Profile{Name: "m1.small", Cores: 1, Speed: 0.4, MigrationMBps: 25.5}},
		{Op: OpRemoveServer, Server: 3},
		{Op: OpMove, Members: []ownership.ID{7, 8, 9}, Server: 1},
	}}
}

func TestRecordRoundTrip(t *testing.T) {
	rec := everyOp()
	got, err := decodeRecord(rec.Seq, appendRecord(nil, &rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, rec)
	}
	if _, err := decodeRecord(rec.Seq+1, appendRecord(nil, &rec)); err == nil {
		t.Fatal("a record decoded at a sequence it does not carry")
	}
}

// TestRecordTruncatedAtEveryOffset: every field takes at least one byte, so
// a record cut anywhere fails to decode, and none panics.
func TestRecordTruncatedAtEveryOffset(t *testing.T) {
	rec := everyOp()
	b := appendRecord(nil, &rec)
	for i := range b {
		if _, err := decodeRecord(rec.Seq, b[:i]); !errors.Is(err, schema.ErrHotFrame) {
			t.Fatalf("record cut at %d of %d bytes: err = %v; want ErrHotFrame", i, len(b), err)
		}
	}
}

// parentGobRecord is record 5 (a Sensor's creation and a move of two
// members) as the gob encoder of a binary before the hot-codec layout
// stored it.
const parentGobRecord = "1a7f0301010777697265426f7801ff80000101010156011000000055ff80012061656f6e2f696e7465726e616c2f7265706c69636174696f6e2e5265636f7264ff81030101065265636f726401ff82000103010353657101060001064f726967696e01040001044d75747301ff8a00000025ff89020101165b5d7265706c69636174696f6e2e4d75746174696f6e01ff8a0001ff84000078ff83030101084d75746174696f6e01ff8400010901024f700106000105436c617373010c0001064f776e65727301ff860001065365727665720104000106506172656e7401060001054368696c64010600010654617267657401060001074d656d6265727301ff8600010750726f66696c6501ff880000001cff850201010e5b5d6f776e6572736869702e494401ff86000106000044ff870301010750726f66696c6501ff8800010401044e616d65010c000105436f72657301040001055370656564010800010d4d6967726174696f6e4d427073010800000028ff82240105010401020101010653656e736f72010103010405000001080302040203040100000000"

// TestGobRecordFailsWithItsSequence: a store an older binary wrote holds
// gob records, and reading one names its sequence instead of guessing.
func TestGobRecordFailsWithItsSequence(t *testing.T) {
	b, err := hex.DecodeString(parentGobRecord)
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeRecord(5, b)
	if !errors.Is(err, schema.ErrHotFrame) || !strings.Contains(err.Error(), "record 5") {
		t.Fatalf("gob record: err = %v; want ErrHotFrame naming record 5", err)
	}
	store := cloudstore.New()
	if _, err := store.CAS(recKey(1), 0, b); err != nil {
		t.Fatal(err)
	}
	rt, _ := newTestRuntime(t, 1)
	p := New(rt, store, Config{Origin: 1})
	if err := p.CatchUp(); err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("catch-up over a gob record: err = %v; want one naming record 1", err)
	}
}

// TestMoveRecordDecodeAllocBudget: a 33-member move record, the size of an
// iot_elastic region group, decodes into its mutation slice and its
// member list (the gob decoder it replaced built 278 objects per record).
func TestMoveRecordDecodeAllocBudget(t *testing.T) {
	const budget = 4
	members := make([]ownership.ID, 33)
	for i := range members {
		members[i] = ownership.ID(1000 + i)
	}
	rec := Record{Seq: 9000, Origin: 2, Muts: []Mutation{{Op: OpMove, Members: members, Server: 3}}}
	b := appendRecord(nil, &rec)
	got := testing.AllocsPerRun(200, func() {
		if _, err := decodeRecord(rec.Seq, b); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a 33-member move record decodes in %v allocations", got)
	if got > budget {
		t.Fatalf("a 33-member move record decodes in %v allocations; budget %d", got, budget)
	}
}

// FuzzRecordCodec: arbitrary bytes never panic the decoder, and whatever
// decodes re-encodes to a record that decodes equal.
func FuzzRecordCodec(f *testing.F) {
	rec := everyOp()
	f.Add(appendRecord(nil, &rec))
	if b, err := hex.DecodeString(parentGobRecord); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var seq uint64
		if len(b) > 2 {
			var r schema.HotReader
			r.Header(b, schema.HotTypeRecord)
			seq = r.Uvarint()
		}
		rec, err := decodeRecord(seq, b)
		if err != nil {
			return
		}
		b1 := appendRecord(nil, &rec)
		again, err := decodeRecord(seq, b1)
		if err != nil {
			t.Fatalf("re-encoded record fails to decode: %v", err)
		}
		if b2 := appendRecord(nil, &again); !bytes.Equal(b2, b1) { // bytes: a NaN is not DeepEqual to itself
			t.Fatalf("record codec is not a fixed point: % x then % x", b1, b2)
		}
	})
}

func TestHeadHintAdvancesForwardOnly(t *testing.T) {
	store := cloudstore.New()
	advanceHead(store, 5)
	if h := readHead(store); h != 5 {
		t.Fatalf("head = %d, want 5", h)
	}
	// A laggard writer must not move the hint backwards.
	advanceHead(store, 3)
	if h := readHead(store); h != 5 {
		t.Fatalf("head moved backwards to %d", h)
	}
	advanceHead(store, 9)
	if h := readHead(store); h != 9 {
		t.Fatalf("head = %d, want 9", h)
	}
}
