package replication

import (
	"testing"

	"aeon/internal/cloudstore"
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

func TestRecordRoundTrip(t *testing.T) {
	rec := Record{Seq: 7, Origin: 3, Muts: []Mutation{
		{Op: OpNewContext, Class: "Leaf", Owners: []ownership.ID{1, 2}, Server: 2},
		{Op: OpAddEdge, Parent: 1, Child: 4},
	}}
	b, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != rec.Seq || got.Origin != rec.Origin || len(got.Muts) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Muts[0].Op != OpNewContext || got.Muts[0].Class != "Leaf" || len(got.Muts[0].Owners) != 2 {
		t.Fatalf("mutation fields lost: %+v", got.Muts[0])
	}
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
