package cloudstore

import "testing"

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
