package cloudstore

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aeon/internal/schema"
)

// TestKindTableComplete fails when a Kind is added without a classification:
// every kind below kindEnd must have a row in kinds and a row here saying
// what that row should be.
func TestKindTableComplete(t *testing.T) {
	type class struct{ read, replica bool }
	want := map[Kind]class{
		OpGet:         {read: true},
		OpList:        {read: true},
		OpPut:         {},
		OpPutBatch:    {},
		OpCreateBatch: {},
		OpCAS:         {},
		OpDelete:      {},
		OpDeleteBatch: {},
		OpApply:       {replica: true},
		OpPromote:     {replica: true},
		OpFenceEpoch:  {read: true, replica: true},
	}
	names := make(map[string]Kind)
	for k := Kind(1); k < kindEnd; k++ {
		w, ok := want[k]
		if !ok {
			t.Errorf("kind %d has no expected classification in this test", k)
			continue
		}
		if !k.valid() {
			t.Errorf("kind %d has no row in kinds", k)
			continue
		}
		if got := (class{k.reads(), k.replica()}); got != w {
			t.Errorf("%v classified %+v; want %+v", k, got, w)
		}
		if prev, dup := names[k.String()]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, k)
		}
		names[k.String()] = k
	}
	for _, k := range []Kind{0, kindEnd, 200} {
		if k.valid() || k.reads() || k.replica() {
			t.Errorf("out-of-range kind %d is classified", k)
		}
		if _, err := New().Do(Op{Kind: k}); err == nil {
			t.Errorf("Store.Do accepted out-of-range kind %d", k)
		}
	}
}

// TestWireRefusesUnknownKind: a kind byte without a row in kinds is refused
// as such — before any field is read, so the frames here end right after it.
func TestWireRefusesUnknownKind(t *testing.T) {
	for _, k := range []Kind{0, kindEnd, 200} {
		err := new(Op).UnmarshalWire([]byte{schema.HotMagic, schema.HotTypeStoreReq, byte(k)})
		if !errors.Is(err, schema.ErrHotFrame) || !strings.Contains(err.Error(), "unknown store op kind") {
			t.Errorf("kind %d: err = %v; want ErrHotFrame naming the kind", k, err)
		}
	}
}

// TestWireLyingCountAllocatesNothing is the store frames' half of schema's
// test of the same name: every collection a store frame carries refuses a
// count larger than the bytes left in the frame before sizing anything by it.
func TestWireLyingCountAllocatesNothing(t *testing.T) {
	const claimed = 60 << 20
	req := []byte{schema.HotMagic, schema.HotTypeStoreReq, byte(OpApply), 0, 0} // kind, no fence, empty key
	op := func(b []byte) error { return new(Op).UnmarshalWire(b) }
	frames := map[string]struct {
		frame  []byte
		decode func([]byte) error
	}{
		"keys":        {schema.PutUvarint(req, claimed), op},
		"entries":     {schema.PutUvarint(append(req[:len(req):len(req)], 0, 0), claimed), op},
		"commit sets": {schema.PutUvarint(append(req[:len(req):len(req)], 0, 0, 0, 0), claimed), op},
		"commit dels": {schema.PutUvarint(append(req[:len(req):len(req)], 0, 0, 0, 0, 0), claimed), op},
		"result keys": {
			schema.PutUvarint([]byte{schema.HotMagic, schema.HotTypeStoreResp, 0, 0, 0}, claimed),
			func(b []byte) error { return new(Reply).UnmarshalWire(b) },
		},
	}
	for name, c := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, schema.ErrHotFrame) || !strings.Contains(err.Error(), "count exceeds frame") {
			t.Errorf("%s: err = %v; want ErrHotFrame from the count check", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: a %d-byte frame made the decoder allocate %d bytes", name, len(c.frame), got)
		}
	}
}

// TestWireDecodeOwnsItsBytes: on the in-memory mesh a request payload is the
// caller's pooled buffer, so nothing decoded may alias the frame.
func TestWireDecodeOwnsItsBytes(t *testing.T) {
	in := Op{
		Kind: OpApply, Key: "key", Keys: []string{"k1", "k2"}, Value: []byte("value"),
		Entries: map[string][]byte{"e": []byte("entry")}, Expect: 3, Fence: &Fence{},
		Commit: Commit{Sets: []KV{{Key: "s", Val: []byte("set"), Ver: 1}}, Dels: []KD{{Key: "d", Ver: 2}}},
	}
	frame := in.AppendWire(nil)
	var out Op
	if err := out.UnmarshalWire(frame); err != nil {
		t.Fatal(err)
	}
	rep := Reply{Result: Result{Value: []byte("value"), Version: 9, Keys: []string{"k1"}}, Code: schema.CodeStoreFenced, Err: "fenced"}
	repFrame := rep.AppendWire(nil)
	var gotRep Reply
	if err := gotRep.UnmarshalWire(repFrame); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{frame, repFrame} {
		for i := range b {
			b[i] = 0xFF
		}
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("op changed when its frame was overwritten:\n got %+v\nwant %+v", out, in)
	}
	if !reflect.DeepEqual(gotRep, rep) {
		t.Errorf("reply changed when its frame was overwritten:\n got %+v\nwant %+v", gotRep, rep)
	}
}
