package schema

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
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

// TestValueResultWireIsByteIdentical: a handler's result reaches the wire as
// a Value (MarshalResults) or as its `any` (MarshalWire of Value.Any), so for
// every kind of result the tree's handlers return, both must write exactly
// the bytes the raw value did before results were Values, and both decoders
// (UnmarshalWire, UnmarshalResults) must hand back the raw value's dynamic
// type. What a client could otherwise see change is the type, not only the
// bytes: an inline int handed back as an int64 would encode under the int64
// tag and decode as an int64, and every client-side res.(int) would panic.
func TestValueResultWireIsByteIdentical(t *testing.T) {
	// frames encodes a result in a response of one outcome (a lone event's)
	// and of two, once as a success and once as an application error: the raw
	// `any` through MarshalWire when v is nil, else *v through MarshalResults.
	frames := func(t *testing.T, raw any, v *Value) (out [][]byte) {
		for _, o := range []BatchOutcome{{Host: 2}, {Host: 3, Code: CodeApp, Err: "app"}} {
			for _, n := range []int{1, 2} {
				resp := SubmitBatchResp{Outcomes: []BatchOutcome{o, o}[:n]}
				var frame []byte
				var err error
				if v == nil {
					for i := range resp.Outcomes {
						resp.Outcomes[i].Result = raw
					}
					frame, err = resp.MarshalWire(nil)
				} else {
					frame, err = resp.MarshalResults(nil, []Value{*v, *v})
				}
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, frame)
			}
		}
		return out
	}
	sameAs := func(t *testing.T, what string, got, want any) {
		t.Helper()
		if reflect.TypeOf(got) != reflect.TypeOf(want) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %#v (%T); want %#v (%T)", what, got, got, want, want)
		}
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
			sameAs(t, "Any()", got, tc.raw)
			want := frames(t, tc.raw, nil)
			for via, fs := range map[string][][]byte{"MarshalWire of Any()": frames(t, got, nil), "MarshalResults": frames(t, nil, &tc.v)} {
				for i, frame := range fs {
					if !bytes.Equal(frame, want[i]) {
						t.Fatalf("%s: frame %d is %x; the raw value encodes as %x", via, i, frame, want[i])
					}
				}
			}
			// SubmitResp, the control acks' frame, carries its result as an `any`.
			single, err := (&SubmitResp{Host: 2, Result: tc.raw}).MarshalWire(nil)
			if err != nil {
				t.Fatal(err)
			}
			var back SubmitResp
			if err := back.UnmarshalWire(single); err != nil {
				t.Fatal(err)
			}
			sameAs(t, "SubmitResp.UnmarshalWire's Result", back.Result, tc.raw)
			var wireBatch SubmitBatchResp
			if err := wireBatch.UnmarshalWire(want[0]); err != nil {
				t.Fatal(err)
			}
			sameAs(t, "UnmarshalWire's Result", wireBatch.Outcomes[0].Result, tc.raw)
			var batch SubmitBatchResp
			results, err := batch.UnmarshalResults(want[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 {
				t.Fatalf("UnmarshalResults returned %d results for 2 outcomes", len(results))
			}
			for i, res := range results {
				sameAs(t, "UnmarshalResults' Any()", res.Any(), tc.raw)
				if batch.Outcomes[i].Result != nil {
					t.Fatalf("UnmarshalResults left outcome %d's Result %#v; want nil", i, batch.Outcomes[i].Result)
				}
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

// TestValueArgWireIsByteIdentical: an event's arguments reach the wire from a
// client's []any (Args) or, on a node that forwards an event it decoded, from
// the Values UnmarshalFrame decoded (Vals), in a frame of one or of two. Both
// must write exactly the bytes the raw arguments do, an argument built inline
// (Int, Str, ID) too, and the Values must stand for the raw arguments'
// dynamic types.
func TestValueArgWireIsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		raw  any
		v    Value // built inline where the kind has a constructor
	}{
		{"int -1", -1, Int(-1)},
		{"int 255", 255, Int(255)},
		{"int 1<<40", 1 << 40, Int(1 << 40)},
		{"string", "hello", Str("hello")},
		{"empty string", "", Str("")},
		{"ownership.ID", ownership.ID(1 << 33), ID(1 << 33)},
		{"bool", true, Of(true)},
		{"int64", int64(-7), Of(int64(-7))},
		{"uint64", uint64(7), Of(uint64(7))},
		{"float64", 2.5, Of(2.5)},
		{"[]byte", []byte("raw"), Of([]byte("raw"))},
		{"nil", nil, Value{}},
		{"struct", wireResult{OID: 7, Lines: 3}, Of(wireResult{OID: 7, Lines: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := []any{tc.raw, "tail", 300}
			vals := []Value{tc.v, Str("tail"), Int(300)}
			encode := func(args []any, vals []Value) (single, batch []byte) {
				t.Helper()
				var err1, err2 error
				single, err1 = (&SubmitBatchReq{Hops: 1, Events: []BatchEvent{{Target: 5, Method: "m", Args: args, Vals: vals}}}).MarshalWire(nil)
				batch, err2 = (&SubmitBatchReq{Events: []BatchEvent{
					{Target: 5, Method: "m", Args: args, Vals: vals}, {Target: 6, Method: "m", Args: args, Vals: vals}}}).MarshalWire(nil)
				if err := errors.Join(err1, err2); err != nil {
					t.Fatal(err)
				}
				return single, batch
			}
			wantSingle, wantBatch := encode(args, nil)
			var q, bq SubmitBatchReq
			if err := errors.Join(q.UnmarshalFrame(wantSingle), bq.UnmarshalFrame(wantBatch)); err != nil {
				t.Fatal(err)
			}
			for _, got := range [][]Value{q.Events[0].Vals, bq.Events[0].Vals, bq.Events[1].Vals} {
				if g := got[0].Any(); reflect.TypeOf(g) != reflect.TypeOf(tc.raw) || !reflect.DeepEqual(g, tc.raw) {
					t.Fatalf("decoded as %#v (%T); want %#v (%T)", g, g, tc.raw, tc.raw)
				}
			}
			forwarded, _ := encode(nil, q.Events[0].Vals)
			forwardedBatch, err := (&SubmitBatchReq{Events: bq.Events}).MarshalWirePick(nil, []int{0, 1})
			if err != nil {
				t.Fatal(err)
			}
			inline, inlineBatch := encode(nil, vals)
			for via, got := range map[string][2][]byte{
				"re-encoded from decoded Values": {forwarded, forwardedBatch},
				"encoded from inline Values":     {inline, inlineBatch},
			} {
				if !bytes.Equal(got[0], wantSingle) || !bytes.Equal(got[1], wantBatch) {
					t.Fatalf("%s: frames %x / %x; the raw args encode as %x / %x", via, got[0], got[1], wantSingle, wantBatch)
				}
			}
		})
	}
}

// TestFrameDecodeOwnsItsStrings: a node decodes every request frame out of a
// pooled buffer that is recycled as soon as the handler returns, while a string
// argument may live on in a handler's state. UnmarshalFrame's strings are
// slices of its own copy of the frame, so overwriting and recycling a frame's
// buffer, and decoding the next frames into the same receivers, leaves every
// string decoded earlier as it was, in a frame of one as in a larger one.
func TestFrameDecodeOwnsItsStrings(t *testing.T) {
	var q, bq SubmitBatchReq
	var kept []Value
	var want []string
	for round := range 4 {
		var batch SubmitBatchReq
		for i := range 8 {
			batch.Events = append(batch.Events, BatchEvent{Target: ownership.ID(i + 1), Method: "post",
				Args: []any{fmt.Sprintf("post %d.%d", round, i), 300 + i, fmt.Sprintf("tag %d", i)}})
		}
		single := SubmitBatchReq{Events: []BatchEvent{{Target: 9, Method: "post", Args: []any{fmt.Sprintf("single %d", round)}}}}
		for _, c := range []struct {
			encode func([]byte) ([]byte, error)
			into   *SubmitBatchReq
		}{{single.MarshalWire, &q}, {batch.MarshalWire, &bq}} {
			buf := GetFrameBuf()
			frame, err := c.encode((*buf)[:0])
			if err != nil {
				t.Fatal(err)
			}
			*buf = frame
			if err := c.into.UnmarshalFrame(frame); err != nil {
				t.Fatal(err)
			}
			for _, ev := range c.into.Events {
				for _, v := range ev.Vals {
					if s, ok := v.Any().(string); ok {
						kept, want = append(kept, v), append(want, strings.Clone(s))
					}
				}
			}
			for i := range frame {
				frame[i] = 0xFF
			}
			PutFrameBuf(buf)
		}
	}
	if len(kept) != 4*(1+2*8) {
		t.Fatalf("decoded %d string arguments; want %d", len(kept), 4*(1+2*8))
	}
	for i, v := range kept {
		if v.Str() != want[i] {
			t.Fatalf("string argument %d reads %q after its frame was overwritten and recycled; it was decoded as %q", i, v.Str(), want[i])
		}
	}
}
