package schema

import (
	"bytes"
	"reflect"
	"testing"

	"aeon/internal/ownership"
)

// wireResult stands for an application result type that is neither an int nor
// a type the hot codec knows: it crosses the wire as a registered gob blob.
type wireResult struct {
	OID   int
	Lines int
}

func init() { RegisterWireType(wireResult{}) }

// TestValueResultWireIsByteIdentical: a handler's result leaves the runtime as
// Value.Any, so for every kind of result the tree's handlers return, the
// response frame must carry exactly the bytes the raw value did before
// results were Values, and decode to the same dynamic type. What a client
// could otherwise see change is the type, not only the bytes: an inline int
// handed back as an int64 would encode under the int64 tag and decode as an
// int64, and every client-side res.(int) would panic.
func TestValueResultWireIsByteIdentical(t *testing.T) {
	// frames encodes res in a single response and in a two-event batch
	// response, once as a success and once as an application error.
	frames := func(res any) (out [][]byte) {
		for _, o := range []BatchOutcome{{Host: 2}, {Host: 3, Code: CodeApp, Err: "app"}} {
			o.Result = res
			single, err := (*SubmitResp)(&o).MarshalWire(nil)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := (&SubmitBatchResp{Outcomes: []BatchOutcome{o, o}}).MarshalWire(nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, single, batch)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		v    Value
		raw  any
	}{
		{"int -1", Int(-1), -1},
		{"int 0", Int(0), 0},
		{"int 255", Int(255), 255},
		{"int 256", Int(256), 256},
		{"int 1<<40", Int(1 << 40), 1 << 40},
		{"boxed int", Of(300), 300},
		{"string", Of("3/120"), "3/120"},
		{"ownership.ID", Of(ownership.ID(1 << 33)), ownership.ID(1 << 33)},
		{"bool", Of(true), true},
		{"nil", Value{}, nil},
		{"nil via Of", Of(nil), nil},
		{"[]int", Of([]int{4, 5}), []int{4, 5}},
		{"struct", Of(wireResult{OID: 7, Lines: 3}), wireResult{OID: 7, Lines: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.v.Any()
			if reflect.TypeOf(got) != reflect.TypeOf(tc.raw) || !reflect.DeepEqual(got, tc.raw) {
				t.Fatalf("Any() = %#v (%T); want %#v (%T)", got, got, tc.raw, tc.raw)
			}
			want := frames(tc.raw)
			for i, frame := range frames(got) {
				if !bytes.Equal(frame, want[i]) {
					t.Fatalf("frame %d is %x; the raw value encodes as %x", i, frame, want[i])
				}
			}
			var back SubmitResp
			if err := back.UnmarshalWire(want[0]); err != nil {
				t.Fatal(err)
			}
			if reflect.TypeOf(back.Result) != reflect.TypeOf(tc.raw) || !reflect.DeepEqual(back.Result, tc.raw) {
				t.Fatalf("decoded %#v (%T); want %#v (%T)", back.Result, back.Result, tc.raw, tc.raw)
			}
		})
	}
}

// TestValueInt: Int holds an int inline and Value.Int reads an int back from
// either form; anything else panics, as the type assertion v.(int) on the
// `any` the Value stands for would.
func TestValueInt(t *testing.T) {
	for _, n := range []int{-1 << 62, -1, 0, 255, 256, 1 << 40} {
		if got := Int(n).Int(); got != n {
			t.Fatalf("Int(%d).Int() = %d", n, got)
		}
		if got := Of(n).Int(); got != n {
			t.Fatalf("Of(%d).Int() = %d", n, got)
		}
		if _, ok := Int(n).Any().(int); !ok {
			t.Fatalf("Int(%d).Any() is a %T; want int", n, Int(n).Any())
		}
	}
	for _, v := range []Value{{}, Of("7"), Of(int64(7)), Of(ownership.ID(7))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%#v.Int() did not panic", v.Any())
				}
			}()
			_ = v.Int()
		}()
	}
}

//go:noinline
func passUp(n int) Value { return Int(n) }

// TestValueIntAllocatesNothing: an int result travels as a Value without a
// heap box, whatever its size; Any boxes it once where it leaves the runtime.
func TestValueIntAllocatesNothing(t *testing.T) {
	sum := 0
	if n := testing.AllocsPerRun(100, func() { sum += passUp(1 << 40).Int() }); n != 0 {
		t.Fatalf("an int ≥ 256 carried as a Value allocated %v times; want 0", n)
	}
	var sink any
	if n := testing.AllocsPerRun(100, func() { sink = passUp(1 << 40).Any() }); n != 1 {
		t.Fatalf("Any() of an int ≥ 256 allocated %v times; want the one box", n)
	}
	_ = sink
}
