package schema

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"aeon/internal/ownership"
)

func roundTripSubmitReq(t *testing.T, in SubmitReq) SubmitReq {
	t.Helper()
	b, err := in.MarshalWire(nil)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if b[0] != HotMagic {
		t.Fatalf("frame does not carry the hot magic: % x", b[:2])
	}
	var out SubmitReq
	if err := out.UnmarshalWire(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

// anys returns vs as their Anys.
func anys(vs []Value) []any {
	var out []any
	for _, v := range vs {
		out = append(out, v.Any())
	}
	return out
}

// sameAnys reports whether a and b hold equal values of the same dynamic
// types, an empty list equal to a nil one.
func sameAnys(a, b []any) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestSubmitReqRoundTrip pins the request frame: every field and every value
// tag survives, with concrete types preserved (an int arrives as an int).
func TestSubmitReqRoundTrip(t *testing.T) {
	cases := []SubmitReq{
		{},
		{Target: 7, Method: "deposit", Args: []any{1}, Hops: 0, MinSeq: 0},
		{Target: math.MaxUint64, Method: "transfer", Args: []any{ownership.ID(3), ownership.ID(9), 250}, Hops: 4, MinSeq: 1 << 40, Trace: 0xdeadbeefcafe0123},
		{Target: 1, Method: "m", Args: []any{
			nil, true, false, int(-42), int64(math.MinInt64), uint64(math.MaxUint64),
			3.14159, "hello", []byte{0, 1, 2}, ownership.ID(12345),
		}},
		{Target: 2, Method: "empty-args", Args: []any{}},
	}
	for i, in := range cases {
		out := roundTripSubmitReq(t, in)
		if out.Target != in.Target || out.Method != in.Method || out.Hops != in.Hops || out.MinSeq != in.MinSeq || out.Trace != in.Trace {
			t.Errorf("case %d: scalar fields changed: %+v vs %+v", i, out, in)
		}
		if len(out.Args) != len(in.Args) {
			t.Fatalf("case %d: %d args, want %d", i, len(out.Args), len(in.Args))
		}
		for j := range in.Args {
			if !reflect.DeepEqual(out.Args[j], in.Args[j]) {
				t.Errorf("case %d arg %d: got %#v (%T), want %#v (%T)",
					i, j, out.Args[j], out.Args[j], in.Args[j], in.Args[j])
			}
		}
	}
}

// TestSubmitReqGobFallback pins the exotic-type escape hatch: a value
// outside the tagged scalar set rides an embedded registered-gob blob and
// still round-trips with its concrete type.
func TestSubmitReqGobFallback(t *testing.T) {
	type exoticArg struct{ N int }
	RegisterWireType(exoticArg{})
	in := SubmitReq{Target: 1, Method: "m", Args: []any{exoticArg{N: 9}, "plain"}}
	out := roundTripSubmitReq(t, in)
	if got, ok := out.Args[0].(exoticArg); !ok || got.N != 9 {
		t.Fatalf("exotic arg: got %#v", out.Args[0])
	}
	if out.Args[1] != "plain" {
		t.Fatalf("arg after exotic: got %#v", out.Args[1])
	}
}

// TestSubmitRespRoundTrip pins the response frame, including error fields
// and the placement-repair Host.
func TestSubmitRespRoundTrip(t *testing.T) {
	cases := []SubmitResp{
		{},
		{Result: 450, Host: 3},
		{Result: nil, Host: -1, Err: "ctx: no such method", Code: CodeUnknownMethod},
		{Result: []byte("blob"), Host: math.MaxInt64},
	}
	for i, in := range cases {
		b, err := in.MarshalWire(nil)
		if err != nil {
			t.Fatalf("case %d marshal: %v", i, err)
		}
		var out SubmitResp
		if err := out.UnmarshalWire(b); err != nil {
			t.Fatalf("case %d unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("case %d: got %+v, want %+v", i, out, in)
		}
	}
}

// TestNotifyAndTransferRoundTrip pins the replication and migration frames.
func TestNotifyAndTransferRoundTrip(t *testing.T) {
	nin := NotifyRec{Seq: 1<<50 + 17}
	b, err := nin.MarshalWire(nil)
	if err != nil {
		t.Fatalf("notify marshal: %v", err)
	}
	var nout NotifyRec
	if err := nout.UnmarshalWire(b); err != nil {
		t.Fatalf("notify unmarshal: %v", err)
	}
	if nout != nin {
		t.Fatalf("notify: got %+v, want %+v", nout, nin)
	}

	tin := TransferRec{
		Members:    []ownership.ID{5, 9, 11},
		From:       2,
		To:         0,
		TotalBytes: 4096,
		MinSeq:     77,
		States: map[uint64][]byte{
			5:  []byte("state-5"),
			11: {},
		},
	}
	b, err = tin.MarshalWire(nil)
	if err != nil {
		t.Fatalf("transfer marshal: %v", err)
	}
	var tout TransferRec
	if err := tout.UnmarshalWire(b); err != nil {
		t.Fatalf("transfer unmarshal: %v", err)
	}
	if !reflect.DeepEqual(tout, tin) {
		t.Fatalf("transfer: got %+v, want %+v", tout, tin)
	}

	// A state keyed by a non-member must be rejected, not silently dropped.
	bad := tin
	bad.States = map[uint64][]byte{99: []byte("orphan")}
	if _, err := bad.MarshalWire(nil); err == nil {
		t.Fatalf("transfer frame with non-member state encoded")
	}
}

// TestHotFrameRejectsWrongType pins the header check: a frame of one type
// must not decode as another, and gob bytes must not decode as hot frames.
func TestHotFrameRejectsWrongType(t *testing.T) {
	req := SubmitReq{Target: 1, Method: "m"}
	b, _ := req.MarshalWire(nil)
	var resp SubmitResp
	if err := resp.UnmarshalWire(b); err == nil {
		t.Fatalf("submitReq frame decoded as submitResp")
	}

	var gb bytes.Buffer
	if err := gob.NewEncoder(&gb).Encode(struct{ X int }{1}); err != nil {
		t.Fatal(err)
	}
	if gb.Bytes()[0] == HotMagic {
		t.Fatalf("gob payload classified as hot frame (first byte %#x)", gb.Bytes()[0])
	}
	var q SubmitReq
	if err := q.UnmarshalWire(gb.Bytes()); err == nil {
		t.Fatalf("gob payload decoded as hot frame")
	}
}

// TestSubmitReqZeroAlloc is the perf contract from the issue: steady-state
// encode+decode of a submit frame allocates nothing — pooled encode buffer,
// reused decode target, interned method, args drawn from the small-int
// cache. The frame carries a nonzero trace ID so the gate also proves the
// trace field keeps the hot encode at 0 allocs.
func TestSubmitReqZeroAlloc(t *testing.T) {
	req := SubmitReq{Target: 42, Method: "deposit", Args: []any{1}, Hops: 1, MinSeq: 9, Trace: 0x0123456789abcdef}
	var dec SubmitReq
	// Warm the intern table and the pool outside the measured window.
	buf := GetFrameBuf()
	b, err := req.MarshalWire((*buf)[:0])
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.UnmarshalWire(b); err != nil {
		t.Fatal(err)
	}
	*buf = b
	PutFrameBuf(buf)

	allocs := testing.AllocsPerRun(200, func() {
		buf := GetFrameBuf()
		b, err := req.MarshalWire((*buf)[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.UnmarshalWire(b); err != nil {
			t.Fatal(err)
		}
		*buf = b
		PutFrameBuf(buf)
	})
	if allocs != 0 {
		t.Fatalf("submit encode+decode allocates %.1f times per op, want 0", allocs)
	}
}

// zeroAllocResp runs the pooled encode+decode cycle of one response frame
// and reports its allocations per cycle.
func zeroAllocResp(t *testing.T, resp, dec interface {
	MarshalWire([]byte) ([]byte, error)
	UnmarshalWire([]byte) error
}) float64 {
	t.Helper()
	cycle := func() {
		buf := GetFrameBuf()
		b, err := resp.MarshalWire((*buf)[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.UnmarshalWire(b); err != nil {
			t.Fatal(err)
		}
		*buf = b
		PutFrameBuf(buf)
	}
	cycle()
	return testing.AllocsPerRun(200, cycle)
}

// TestSubmitRespZeroAlloc: same contract for the response direction (the
// result is a cached small int, the Host varint and the code byte are free).
// A coded outcome's decode is gated at its one allocation: the message.
func TestSubmitRespZeroAlloc(t *testing.T) {
	if allocs := zeroAllocResp(t, &SubmitResp{Result: 7, Host: 3}, &SubmitResp{}); allocs != 0 {
		t.Fatalf("resp encode+decode allocates %.1f times per op, want 0", allocs)
	}
	failed := &SubmitResp{Host: 3, Code: CodeBackpressure, Err: "acct#7: queue full"}
	if allocs := zeroAllocResp(t, failed, &SubmitResp{}); allocs != 1 {
		t.Fatalf("coded resp encode+decode allocates %.1f times per op, want 1 (the message string)", allocs)
	}
}

// TestSubmitBatchReqRoundTrip pins the batched request frame: every event's
// fields survive index-aligned, including repeated targets (back-reference
// encoded), mixed targets beyond the scan window, and per-event args.
func TestSubmitBatchReqRoundTrip(t *testing.T) {
	mixed := make([]BatchEvent, 0, 24)
	for i := 0; i < 24; i++ {
		// 12 distinct targets — larger than the back-reference scan window —
		// interleaved so both raw and back-referenced encodings occur.
		mixed = append(mixed, BatchEvent{
			Target: ownership.ID(i % 12),
			Method: "deposit",
			Args:   []any{i},
		})
	}
	cases := []SubmitBatchReq{
		{},
		{Hops: 2, MinSeq: 99, Events: []BatchEvent{
			{Target: 7, Method: "deposit", Args: []any{1}},
			{Target: 7, Method: "withdraw", Args: []any{2, "memo"}},
			{Target: 9, Method: "balance"},
			{Target: 7, Method: "deposit", Args: []any{nil, true, 3.5, []byte{1, 2}, ownership.ID(4)}},
		}},
		{Events: mixed},
	}
	for i, in := range cases {
		b, err := in.MarshalWire(nil)
		if err != nil {
			t.Fatalf("case %d marshal: %v", i, err)
		}
		if b[0] != HotMagic {
			t.Fatalf("case %d: frame does not carry the hot magic", i)
		}
		if got, want := HotFrameEvents(b), max(len(in.Events), 1); got != want {
			t.Errorf("case %d: HotFrameEvents = %d, want %d", i, got, want)
		}
		var out SubmitBatchReq
		if err := out.UnmarshalWire(b); err != nil {
			t.Fatalf("case %d unmarshal: %v", i, err)
		}
		if out.Hops != in.Hops || out.MinSeq != in.MinSeq || len(out.Events) != len(in.Events) {
			t.Fatalf("case %d: frame fields changed: %+v vs %+v", i, out, in)
		}
		for j := range in.Events {
			ie, oe := in.Events[j], out.Events[j]
			if oe.Target != ie.Target || oe.Method != ie.Method || len(oe.Args) != len(ie.Args) {
				t.Errorf("case %d event %d: got %+v, want %+v", i, j, oe, ie)
			}
			for k := range ie.Args {
				if !reflect.DeepEqual(oe.Args[k], ie.Args[k]) {
					t.Errorf("case %d event %d arg %d: got %#v (%T), want %#v (%T)",
						i, j, k, oe.Args[k], oe.Args[k], ie.Args[k], ie.Args[k])
				}
			}
		}
	}
}

// TestSubmitBatchReqOneCodecBody pins that the struct forms and the
// frame-scoped forms are the same codec: MarshalWirePick of an index list is
// byte-identical to MarshalWire of the copied-out subset (back-references
// included), and UnmarshalFrame decodes into Vals what UnmarshalWire decodes
// into Args, value for value and type for type — except that each event's
// Vals is a full-slice-expression cut of memory no later decode into the same
// receiver writes.
func TestSubmitBatchReqOneCodecBody(t *testing.T) {
	all := SubmitBatchReq{Hops: 1, MinSeq: 7, Trace: 9}
	for i := 0; i < 40; i++ {
		ev := BatchEvent{Target: ownership.ID(300 + i%5), Method: "deposit", Args: []any{1000 + i}}
		switch i % 4 {
		case 1:
			ev.Method, ev.Args = "balance", nil
		case 3:
			ev.Args = []any{i, "memo", ownership.ID(i)}
		}
		all.Events = append(all.Events, ev)
	}
	pick := []int{0, 2, 3, 7, 8, 12, 13, 14, 21, 39}
	subset := SubmitBatchReq{Hops: all.Hops, MinSeq: all.MinSeq, Trace: all.Trace}
	for _, i := range pick {
		subset.Events = append(subset.Events, all.Events[i])
	}
	picked, err := all.MarshalWirePick(nil, pick)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := subset.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(picked, copied) {
		t.Fatalf("MarshalWirePick differs from MarshalWire of the copied subset:\n%x\n%x", picked, copied)
	}
	if _, err := all.MarshalWirePick(nil, make([]int, MaxBatchEvents+1)); err == nil {
		t.Fatal("oversized pick list encoded")
	}

	whole, err := all.MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	var viaWire, viaFrame SubmitBatchReq
	if err := viaWire.UnmarshalWire(whole); err != nil {
		t.Fatal(err)
	}
	if err := viaFrame.UnmarshalFrame(whole); err != nil {
		t.Fatal(err)
	}
	if len(viaFrame.Events) != len(viaWire.Events) {
		t.Fatalf("UnmarshalFrame decoded %d events, UnmarshalWire %d", len(viaFrame.Events), len(viaWire.Events))
	}
	for i := range viaWire.Events {
		w, f := viaWire.Events[i], viaFrame.Events[i]
		if f.Target != w.Target || f.Method != w.Method || len(f.Args) != 0 || len(w.Vals) != 0 || !sameAnys(anys(f.Vals), w.Args) {
			t.Fatalf("event %d: UnmarshalFrame %+v (%#v), UnmarshalWire %+v", i, f, anys(f.Vals), w)
		}
		if cap(f.Vals) != len(f.Vals) {
			t.Fatalf("event %d: Vals has spare capacity %d into its neighbour's", i, cap(f.Vals)-len(f.Vals))
		}
	}
	// A kept Vals slice survives the receiver's reuse, and appending to it
	// never writes a batchmate's.
	kept := viaFrame.Events[3].Vals
	_ = append(kept, Str("grown"))
	first := viaFrame.Events[0].Vals
	if err := viaFrame.UnmarshalFrame(picked); err != nil {
		t.Fatal(err)
	}
	if err := viaFrame.UnmarshalFrame(whole); err != nil {
		t.Fatal(err)
	}
	if !sameAnys(anys(kept), []any{3, "memo", ownership.ID(3)}) || !sameAnys(anys(first), []any{1000}) {
		t.Fatalf("args kept across two reuses of the receiver changed: %v %v", anys(kept), anys(first))
	}
	if !sameAnys(anys(viaFrame.Events[4].Vals), []any{1004}) {
		t.Fatalf("appending to event 3's args wrote event 4's: %v", anys(viaFrame.Events[4].Vals))
	}
	// A lying arg count fails before it can size an allocation.
	lying := []byte{HotMagic, 5, 0, 0, 0, 1, 0, 9, 0}
	lying = PutUvarint(lying, hotMax)
	if err := viaFrame.UnmarshalFrame(lying); !errors.Is(err, ErrHotFrame) {
		t.Fatalf("arg count beyond the frame's bytes: err = %v; want ErrHotFrame", err)
	}
}

// TestFramePoolDropsOutsizedBuffers: the pool keeps no buffer grown past one
// mux read buffer (64 KiB), so a frame that grew its buffer — a response or
// a state transfer of megabytes — leaves nothing that size resident once it
// is released.
func TestFramePoolDropsOutsizedBuffers(t *testing.T) {
	for range 16 {
		b := make([]byte, 0, 1<<20)
		PutFrameBuf(&b)
	}
	for i := range 16 {
		if c := cap(*GetFrameBuf()); c > 64<<10 {
			t.Fatalf("buffer %d taken from the pool holds %d bytes; the pool keeps none above 64 KiB", i, c)
		}
	}
}

// TestLyingCountAllocatesNothing: a collection count larger than the bytes
// left in the frame is refused before it sizes anything. The ten-byte
// transfer frame below claims 60 Mi members; sized from the claim, the decoder
// allocated 480 MiB before failing on the first missing element.
func TestLyingCountAllocatesNothing(t *testing.T) {
	const claimed = 60 << 20
	frames := map[string]struct {
		frame  []byte
		decode func([]byte) error
	}{
		"transfer members": {
			PutUvarint([]byte{HotMagic, hotTypeTransfer, 0, 0, 0, 0}, claimed),
			func(b []byte) error { return new(TransferRec).UnmarshalWire(b) },
		},
		"transfer states": {
			PutUvarint([]byte{HotMagic, hotTypeTransfer, 0, 0, 0, 0, 0}, claimed),
			func(b []byte) error { return new(TransferRec).UnmarshalWire(b) },
		},
		"submit args": {
			PutUvarint([]byte{HotMagic, hotTypeSubmitReq, 1, 0, 0, 0, 0}, claimed),
			func(b []byte) error { return new(SubmitReq).UnmarshalWire(b) },
		},
	}
	if n := len(frames["transfer members"].frame); n != 10 {
		t.Fatalf("the transfer frame is %d bytes; the case is about a 10-byte one", n)
	}
	for name, c := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrHotFrame) {
			t.Errorf("%s: err = %v; want ErrHotFrame", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: a %d-byte frame made the decoder allocate %d bytes", name, len(c.frame), got)
		}
	}
}

// TestHotReaderFailSticks pins the reader's contract: after Fail every read
// returns its zero value, however many bytes the frame had left, and Err keeps
// naming the first failure and its offset through a second one.
func TestHotReaderFailSticks(t *testing.T) {
	// Bytes every read below decodes to a non-zero value on a live reader.
	left := PutString([]byte{tagString}, "sticky")
	frame := append([]byte{HotMagic, hotTypeNotify, 1}, left...)
	reads := map[string]func(*HotReader) bool{ // reports whether the read was zero
		"Byte":      func(r *HotReader) bool { return r.Byte() == 0 },
		"Uvarint":   func(r *HotReader) bool { return r.Uvarint() == 0 },
		"Varint":    func(r *HotReader) bool { return r.Varint() == 0 },
		"take":      func(r *HotReader) bool { return r.take(1) == nil },
		"LenBytes":  func(r *HotReader) bool { return r.LenBytes() == nil },
		"Str":       func(r *HotReader) bool { return r.Str() == "" },
		"Count":     func(r *HotReader) bool { return r.Count() == 0 },
		"readValue": func(r *HotReader) bool { return r.readValue().Any() == nil },
	}
	const want = "schema: malformed hot frame: first at offset 3"
	for name, read := range reads {
		var live, failed HotReader
		for _, r := range []*HotReader{&live, &failed} {
			r.Header(frame, hotTypeNotify)
			r.Byte()
		}
		failed.Fail("first")
		if read(&live) || live.Err() != nil {
			t.Fatalf("%s: a live reader read zero from % x (err %v)", name, left, live.Err())
		}
		if !read(&failed) {
			t.Errorf("%s after Fail read a non-zero value: the reader kept its bytes", name)
		}
		failed.Fail("second")
		if err := failed.Err(); !errors.Is(err, ErrHotFrame) || err.Error() != want {
			t.Errorf("%s: Err() = %v after two failures; want %q", name, err, want)
		}
	}
}

// TestInternedEmptyStringSkipsTable pins that the empty method name decodes
// without entering (or reading) the intern table, whichever frame carries
// it, while real names still intern to one shared string.
func TestInternedEmptyStringSkipsTable(t *testing.T) {
	frames := map[string]func() ([]byte, error){
		"submit req, empty method": func() ([]byte, error) { return (&SubmitReq{Target: 3}).MarshalWire(nil) },
		"batch req, empty methods": func() ([]byte, error) {
			return (&SubmitBatchReq{Events: []BatchEvent{{Target: 3}, {Target: 3, Method: "intern-test-method"}, {Target: 4}}}).MarshalWire(nil)
		},
	}
	for name, build := range frames {
		b, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var (
			q  SubmitReq
			bq SubmitBatchReq
		)
		if q.UnmarshalWire(b) != nil && bq.UnmarshalFrame(b) != nil {
			t.Fatalf("%s: frame decodes as nothing", name)
		}
		if _, ok := internTable()[""]; ok {
			t.Fatalf("%s: the empty string entered the intern table", name)
		}
	}
	tab := internTable()
	if _, ok := tab["intern-test-method"]; !ok {
		t.Fatal("a method name was decoded but not interned")
	}
	if intern(nil) != "" || intern([]byte{}) != "" {
		t.Fatal("intern of no bytes is not the empty string")
	}
}

// TestSubmitBatchRespRoundTrip pins the batched response frame, in
// particular the partial-failure contract: one outcome's typed error rides
// its own slot and its siblings' results are untouched.
func TestSubmitBatchRespRoundTrip(t *testing.T) {
	in := SubmitBatchResp{Outcomes: []BatchOutcome{
		{Result: 450, Host: 3},
		{Result: nil, Host: -1, Err: "no such context", Code: CodeUnknownContext},
		{Result: "ok", Host: 2},
		{Err: "queue full", Code: CodeBackpressure},
	}}
	b, err := in.MarshalWire(nil)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out SubmitBatchResp
	if err := out.UnmarshalWire(b); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v, want %+v", out, in)
	}

	var empty SubmitBatchResp
	b, err = empty.MarshalWire(nil)
	if err != nil {
		t.Fatalf("empty marshal: %v", err)
	}
	var eout SubmitBatchResp
	if err := eout.UnmarshalWire(b); err != nil {
		t.Fatalf("empty unmarshal: %v", err)
	}
	if len(eout.Outcomes) != 0 {
		t.Fatalf("empty batch decoded %d outcomes", len(eout.Outcomes))
	}
}

// TestSubmitBatchBounds pins the decoder's refusal to allocate for absurd
// counts and the encoder's refusal to exceed MaxBatchEvents, plus rejection
// of forward target back-references.
func TestSubmitBatchBounds(t *testing.T) {
	big := SubmitBatchReq{Events: make([]BatchEvent, MaxBatchEvents+1)}
	if _, err := big.MarshalWire(nil); err == nil {
		t.Fatalf("oversized batch encoded")
	}
	// Hand-build a frame declaring MaxBatchEvents+1 events.
	frame := []byte{HotMagic, 5}
	frame = PutUvarint(frame, 0)                // Hops
	frame = PutUvarint(frame, 0)                // MinSeq
	frame = PutUvarint(frame, MaxBatchEvents+1) // count
	var q SubmitBatchReq
	if err := q.UnmarshalWire(frame); err == nil {
		t.Fatalf("oversized batch count decoded")
	}
	// A back-reference pointing past the first event is corrupt.
	frame = []byte{HotMagic, 5}
	frame = PutUvarint(frame, 0)
	frame = PutUvarint(frame, 0)
	frame = PutUvarint(frame, 1) // one event
	frame = PutUvarint(frame, 3) // back-ref 3 with no prior events
	if err := q.UnmarshalWire(frame); err == nil {
		t.Fatalf("forward back-reference decoded")
	}
}

// TestSubmitBatchReqZeroAlloc extends the perf contract to the batch frame:
// steady-state encode+decode of an 8-event coalesced batch allocates
// nothing.
func TestSubmitBatchReqZeroAlloc(t *testing.T) {
	evs := make([]BatchEvent, 8)
	for i := range evs {
		evs[i] = BatchEvent{Target: ownership.ID(40 + i%2), Method: "deposit", Args: []any{1}}
	}
	req := SubmitBatchReq{MinSeq: 9, Trace: 0xfeedface01020304, Events: evs}
	var dec SubmitBatchReq
	buf := GetFrameBuf()
	b, err := req.MarshalWire((*buf)[:0])
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.UnmarshalWire(b); err != nil {
		t.Fatal(err)
	}
	*buf = b
	PutFrameBuf(buf)

	allocs := testing.AllocsPerRun(200, func() {
		buf := GetFrameBuf()
		b, err := req.MarshalWire((*buf)[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := dec.UnmarshalWire(b); err != nil {
			t.Fatal(err)
		}
		*buf = b
		PutFrameBuf(buf)
	})
	if allocs != 0 {
		t.Fatalf("batch encode+decode allocates %.1f times per op, want 0", allocs)
	}
}

// TestSubmitBatchRespZeroAlloc: same contract for the batched response; each
// coded outcome in the frame costs its message string and nothing else.
func TestSubmitBatchRespZeroAlloc(t *testing.T) {
	outs := make([]BatchOutcome, 8)
	for i := range outs {
		outs[i] = BatchOutcome{Result: 7, Host: 3}
	}
	if allocs := zeroAllocResp(t, &SubmitBatchResp{Outcomes: outs}, &SubmitBatchResp{}); allocs != 0 {
		t.Fatalf("batch resp encode+decode allocates %.1f times per op, want 0", allocs)
	}
	outs[2] = BatchOutcome{Host: 3, Code: CodeUnknownContext, Err: "ctx#9: no such context"}
	outs[5] = BatchOutcome{Host: -1, Code: CodeLinkPartitioned, Err: "batch submit to 2: link partitioned"}
	if allocs := zeroAllocResp(t, &SubmitBatchResp{Outcomes: outs}, &SubmitBatchResp{}); allocs != 2 {
		t.Fatalf("batch resp with 2 coded outcomes allocates %.1f times per op, want 2 (their message strings)", allocs)
	}

	// Through the Value entry points an int result of any size rides unboxed
	// both ways, into a reused results slice.
	resp := SubmitBatchResp{Outcomes: make([]BatchOutcome, 8)}
	results := make([]Value, len(resp.Outcomes))
	for i := range results {
		resp.Outcomes[i].Host = 3
		results[i] = Int(1<<20 + i)
	}
	var dec SubmitBatchResp
	var back []Value
	buf := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(100, func() {
		b, err := resp.MarshalResults(buf[:0], results)
		if err == nil {
			back, err = dec.UnmarshalResults(b, back)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("batch resp encode+decode of int results >= 256 through the Value entry points allocates %.1f times per op, want 0", allocs)
	}
	for i, v := range back {
		if v.Int() != 1<<20+i || dec.Outcomes[i].Host != 3 {
			t.Fatalf("outcome %d decoded as (%v, host %d)", i, v.Any(), dec.Outcomes[i].Host)
		}
	}
}

// BenchmarkSubmitBatchReqHotCodec reports the amortized per-event codec cost
// at a coalescer-sized batch.
func BenchmarkSubmitBatchReqHotCodec(b *testing.B) {
	evs := make([]BatchEvent, 32)
	for i := range evs {
		evs[i] = BatchEvent{Target: ownership.ID(40 + i%4), Method: "deposit", Args: []any{1}}
	}
	req := SubmitBatchReq{Events: evs}
	var dec SubmitBatchReq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetFrameBuf()
		fb, err := req.MarshalWire((*buf)[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.UnmarshalWire(fb); err != nil {
			b.Fatal(err)
		}
		*buf = fb
		PutFrameBuf(buf)
	}
}

// BenchmarkSubmitReqHotCodec reports the hot path cost; run with -benchmem
// to see the 0 B/op, 0 allocs/op contract.
func BenchmarkSubmitReqHotCodec(b *testing.B) {
	req := SubmitReq{Target: 42, Method: "deposit", Args: []any{1}, Hops: 1, MinSeq: 9}
	var dec SubmitReq
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetFrameBuf()
		fb, err := req.MarshalWire((*buf)[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.UnmarshalWire(fb); err != nil {
			b.Fatal(err)
		}
		*buf = fb
		PutFrameBuf(buf)
	}
}

// BenchmarkSubmitReqGob is the baseline the hot codec replaces.
func BenchmarkSubmitReqGob(b *testing.B) {
	type gobSubmitReq struct {
		Target ownership.ID
		Method string
		Args   []any
		Hops   uint32
		MinSeq uint64
	}
	gob.Register(gobSubmitReq{})
	req := gobSubmitReq{Target: 42, Method: "deposit", Args: []any{1}, Hops: 1, MinSeq: 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var bb bytes.Buffer
		if err := gob.NewEncoder(&bb).Encode(&req); err != nil {
			b.Fatal(err)
		}
		var dec gobSubmitReq
		if err := gob.NewDecoder(&bb).Decode(&dec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUnknownCodeByteReadsAsUnknown is the fuzz corpus's newer-peer seed as
// a plain test: the byte maps to the generic unknown-class code, message kept.
func TestUnknownCodeByteReadsAsUnknown(t *testing.T) {
	b, err := (&SubmitResp{Host: 3, Err: "boom", Code: CodeUnknownContext}).MarshalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	b[3] = 0xEE
	var p SubmitResp
	if err := p.UnmarshalWire(b); err != nil {
		t.Fatal(err)
	}
	back := Err(p.Code, p.Err)
	if p.Code != CodeUnknown || CodeOf(back).Class() != OutcomeUnknown || back.Error() != "boom" {
		t.Fatalf("code byte 0xEE decoded as %d (%s), error %v", p.Code, p.Code.Name(), back)
	}
	if Err(0xEE, "x").(*Coded).Code != CodeUnknown || Code(0xEE).Class() != OutcomeUnknown {
		t.Fatal("a raw out-of-table code does not read as CodeUnknown")
	}
}

// TestCodeTableComplete fails when a code is added without a name, a message
// or a retry class, or under a name another code already has (the name is
// the aeon_errors_total label).
func TestCodeTableComplete(t *testing.T) {
	names := map[string]Code{}
	for c := CodeOK + 1; c < NumCodes; c++ {
		row := codeTable[c]
		if row.name == "" || row.msg == "" {
			t.Errorf("code %d has name %q, message %q; both are required", c, row.name, row.msg)
		}
		if row.class < NotExecuted || row.class > OutcomeUnknown {
			t.Errorf("code %d (%s) has no retry class", c, row.name)
		}
		if prev, dup := names[row.name]; dup {
			t.Errorf("codes %d and %d share the name %q", prev, c, row.name)
		}
		names[row.name] = c
		if c.Error() != row.msg || c.Name() != row.name || c.Class() != row.class {
			t.Errorf("code %d: accessors disagree with its row", c)
		}
	}
	if CodeOK.Class() != 0 || CodeOf(nil) != CodeOK || Err(CodeOK, "ignored") != nil {
		t.Error("CodeOK must read as no error")
	}
}
