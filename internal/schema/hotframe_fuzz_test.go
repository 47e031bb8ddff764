package schema_test

// The fuzzer lives outside package schema so that it can feed the store
// frames too: they are laid out in cloudstore, which imports schema.

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"aeon/internal/cloudstore"
	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// FuzzHotFrameRoundTrip feeds arbitrary bytes to every hot decoder (no
// panics allowed) and, when the bytes decode, re-encodes and re-decodes to
// check the codec agrees with itself — the round trip must be a fixed point.
func FuzzHotFrameRoundTrip(f *testing.F) {
	seedReq := schema.SubmitReq{Target: 7, Method: "deposit", Args: []any{1, "x", ownership.ID(3)}, Hops: 2, MinSeq: 5}
	if b, err := seedReq.MarshalWire(nil); err == nil {
		f.Add(b)
	}
	seedResp := schema.SubmitResp{Host: 3, Err: "boom", Code: schema.CodeUnknownContext}
	if b, err := seedResp.MarshalWire(nil); err == nil {
		f.Add(b)
		// The same frame from a peer whose table has grown past ours: the
		// code byte sits right after the header and the one-byte Host.
		newer := append([]byte(nil), b...)
		newer[3] = 0xEE
		f.Add(newer)
	}
	seedTr := schema.TransferRec{Members: []ownership.ID{1, 2}, From: 1, To: 2, TotalBytes: 10, MinSeq: 3,
		States: map[uint64][]byte{1: []byte("s")}}
	if b, err := seedTr.MarshalWire(nil); err == nil {
		f.Add(b)
	}
	seedBatch := schema.SubmitBatchReq{Hops: 1, MinSeq: 4, Events: []schema.BatchEvent{
		{Target: 7, Method: "deposit", Args: []any{1}},
		{Target: 7, Method: "withdraw", Args: []any{"x"}},
		{Target: 9, Method: "balance"},
	}}
	if b, err := seedBatch.MarshalWire(nil); err == nil {
		f.Add(b)
	}
	seedBatchResp := schema.SubmitBatchResp{Outcomes: []schema.BatchOutcome{
		{Result: 450, Host: 3},
		{Err: "boom", Code: schema.CodeBackpressure, Host: -1},
		{Err: "lost", Code: schema.CodeLinkPartitioned, Host: 2},
	}}
	if b, err := seedBatchResp.MarshalWire(nil); err == nil {
		f.Add(b)
	}
	f.Add([]byte{schema.HotMagic})
	f.Add([]byte{schema.HotMagic, 1})
	f.Add([]byte{schema.HotMagic, 4, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Add([]byte{schema.HotMagic, 5, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte("not a frame at all"))
	seedPlace := schema.PlaceReq{Context: 7, Server: 3}
	if b, err := seedPlace.MarshalWire(nil); err == nil {
		f.Add(b)
	}
	for _, op := range storeOpSeeds() {
		f.Add(op.AppendWire(nil))
	}
	for _, rep := range []cloudstore.Reply{
		{Result: cloudstore.Result{Value: []byte("v"), Version: 9, Keys: []string{"a", "b"}}},
		{Code: schema.CodeStoreNotFound, Err: `"k": cloudstore: key not found`},
		{Result: cloudstore.Result{Version: 6}, Code: schema.CodeStoreFenced, Err: "partition 0: epoch 5 < fence 6"},
	} {
		f.Add(rep.AppendWire(nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var q schema.SubmitReq
		if err := q.UnmarshalWire(data); err == nil {
			b2, err := q.MarshalWire(nil)
			if err != nil {
				t.Fatalf("re-encode of decoded submitReq failed: %v", err)
			}
			var q2 schema.SubmitReq
			if err := q2.UnmarshalWire(b2); err != nil {
				t.Fatalf("re-decode of re-encoded submitReq failed: %v", err)
			}
			if q2.Target != q.Target || q2.Method != q.Method || q2.Hops != q.Hops ||
				q2.MinSeq != q.MinSeq || len(q2.Args) != len(q.Args) {
				t.Fatalf("submitReq round trip not a fixed point: %+v vs %+v", q2, q)
			}
		}
		var p schema.SubmitResp
		if err := p.UnmarshalWire(data); err == nil {
			b2, err := p.MarshalWire(nil)
			if err != nil {
				t.Fatalf("re-encode of decoded submitResp failed: %v", err)
			}
			var p2 schema.SubmitResp
			if err := p2.UnmarshalWire(b2); err != nil {
				t.Fatalf("re-decode of re-encoded submitResp failed: %v", err)
			}
			if p2.Code != p.Code || p2.Err != p.Err || p2.Host != p.Host {
				t.Fatalf("submitResp round trip not a fixed point: %+v vs %+v", p2, p)
			}
			checkDecodedCode(t, p.Code, p.Err)
		}
		var n schema.NotifyRec
		if err := n.UnmarshalWire(data); err == nil {
			b2, _ := n.MarshalWire(nil)
			var n2 schema.NotifyRec
			if err := n2.UnmarshalWire(b2); err != nil || n2 != n {
				t.Fatalf("notify round trip not a fixed point: %+v vs %+v (%v)", n2, n, err)
			}
		}
		var tr schema.TransferRec
		if err := tr.UnmarshalWire(data); err == nil {
			if b2, err := tr.MarshalWire(nil); err == nil {
				var tr2 schema.TransferRec
				if err := tr2.UnmarshalWire(b2); err != nil {
					t.Fatalf("re-decode of re-encoded transfer failed: %v", err)
				}
			}
		}
		var pl schema.PlaceReq
		if err := pl.UnmarshalWire(data); err == nil {
			b2, _ := pl.MarshalWire(nil)
			var pl2 schema.PlaceReq
			if err := pl2.UnmarshalWire(b2); err != nil || pl2 != pl {
				t.Fatalf("placeReq round trip not a fixed point: %+v vs %+v (%v)", pl2, pl, err)
			}
		}
		var op cloudstore.Op
		if err := op.UnmarshalWire(data); err == nil {
			var op2 cloudstore.Op
			if err := op2.UnmarshalWire(op.AppendWire(nil)); err != nil || !reflect.DeepEqual(op2, op) {
				t.Fatalf("store op round trip not a fixed point: %+v vs %+v (%v)", op2, op, err)
			}
		}
		var rep cloudstore.Reply
		if err := rep.UnmarshalWire(data); err == nil {
			var rep2 cloudstore.Reply
			if err := rep2.UnmarshalWire(rep.AppendWire(nil)); err != nil || !reflect.DeepEqual(rep2, rep) {
				t.Fatalf("store reply round trip not a fixed point: %+v vs %+v (%v)", rep2, rep, err)
			}
			checkDecodedCode(t, rep.Code, rep.Err)
		}
		var bq schema.SubmitBatchReq
		if err := bq.UnmarshalWire(data); err == nil {
			// The transport weighs admission by HotFrameEvents: it must count
			// what the decoder decodes.
			if got, want := schema.HotFrameEvents(data), max(1, len(bq.Events)); got != want {
				t.Fatalf("HotFrameEvents = %d for a frame that decodes %d events", got, len(bq.Events))
			}
			b2, err := bq.MarshalWire(nil)
			if err != nil {
				t.Fatalf("re-encode of decoded submitBatchReq failed: %v", err)
			}
			var bq2 schema.SubmitBatchReq
			if err := bq2.UnmarshalFrame(b2); err != nil {
				t.Fatalf("frame-form re-decode of re-encoded submitBatchReq failed: %v", err)
			}
			if bq2.Hops != bq.Hops || bq2.MinSeq != bq.MinSeq || len(bq2.Events) != len(bq.Events) {
				t.Fatalf("submitBatchReq round trip not a fixed point: %+v vs %+v", bq2, bq)
			}
			for i := range bq.Events {
				if bq2.Events[i].Target != bq.Events[i].Target || bq2.Events[i].Method != bq.Events[i].Method {
					t.Fatalf("submitBatchReq event %d not a fixed point", i)
				}
			}
		}
		var bp schema.SubmitBatchResp
		if err := bp.UnmarshalWire(data); err == nil {
			b2, err := bp.MarshalWire(nil)
			if err != nil {
				t.Fatalf("re-encode of decoded submitBatchResp failed: %v", err)
			}
			var bp2 schema.SubmitBatchResp
			if err := bp2.UnmarshalWire(b2); err != nil {
				t.Fatalf("re-decode of re-encoded submitBatchResp failed: %v", err)
			}
			if len(bp2.Outcomes) != len(bp.Outcomes) {
				t.Fatalf("submitBatchResp round trip not a fixed point")
			}
			for i, o := range bp.Outcomes {
				if o2 := bp2.Outcomes[i]; o2.Code != o.Code || o2.Err != o.Err || o2.Host != o.Host {
					t.Fatalf("submitBatchResp outcome %d not a fixed point: %+v vs %+v", i, o2, o)
				}
				checkDecodedCode(t, o.Code, o.Err)
			}
		}
	})
}

// TestEveryTruncationRefused: a frame cut short anywhere is malformed. For one
// frame of every shape the whole frame decodes, and every strict prefix of it
// fails with ErrHotFrame without the decoder allocating more than 1 MiB —
// whichever field the cut lands in, a decoder that reads past it or stops
// checking its reader shows here.
func TestEveryTruncationRefused(t *testing.T) {
	type frame struct {
		name   string
		b      []byte
		decode func([]byte) error
	}
	var frames []frame
	add := func(name string, b []byte, err error, decode func([]byte) error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		frames = append(frames, frame{name, b, decode})
	}
	// Every value tag, the embedded-gob fallback included ([]ownership.ID is
	// registered but not one of the tagged scalars).
	req := schema.SubmitReq{Target: 300, Method: "deposit", Hops: 2, MinSeq: 9, Trace: 77, Args: []any{
		nil, false, true, -5, int64(-1 << 40), uint64(1 << 63), 2.5, "memo", []byte("raw"), ownership.ID(12),
		[]ownership.ID{1, 2},
	}}
	b, err := req.MarshalWire(nil)
	add("submit req", b, err, func(b []byte) error { return new(schema.SubmitReq).UnmarshalWire(b) })
	resp := schema.SubmitResp{Result: "moved", Host: 3, Err: "ctx#9: no such context", Code: schema.CodeUnknownContext}
	b, err = resp.MarshalWire(nil)
	add("submit resp", b, err, func(b []byte) error { return new(schema.SubmitResp).UnmarshalWire(b) })
	b, err = (&schema.NotifyRec{Seq: 1 << 40}).MarshalWire(nil)
	add("notify", b, err, func(b []byte) error { return new(schema.NotifyRec).UnmarshalWire(b) })
	b, err = (&schema.PlaceReq{Context: 700, Server: 2}).MarshalWire(nil)
	add("place req", b, err, func(b []byte) error { return new(schema.PlaceReq).UnmarshalWire(b) })
	tr := schema.TransferRec{Members: []ownership.ID{5, 900}, From: 1, To: 2, TotalBytes: 4096, MinSeq: 3,
		States: map[uint64][]byte{900: []byte("state")}}
	b, err = tr.MarshalWire(nil)
	add("transfer", b, err, func(b []byte) error { return new(schema.TransferRec).UnmarshalWire(b) })
	batch := schema.SubmitBatchReq{Hops: 1, MinSeq: 4, Trace: 8, Events: []schema.BatchEvent{
		{Target: 300, Method: "deposit", Args: []any{1}},
		{Target: 300, Method: "withdraw", Args: []any{200, "memo"}},
		{Target: 9, Method: "balance"},
	}}
	b, err = batch.MarshalWire(nil)
	add("batch req", b, err, func(b []byte) error { return new(schema.SubmitBatchReq).UnmarshalFrame(b) })
	batchResp := schema.SubmitBatchResp{Outcomes: []schema.BatchOutcome{
		{Result: 450, Host: 3},
		{Err: "queue full", Code: schema.CodeBackpressure, Host: -1},
	}}
	b, err = batchResp.MarshalWire(nil)
	add("batch resp", b, err, func(b []byte) error { return new(schema.SubmitBatchResp).UnmarshalWire(b) })
	for _, op := range storeOpSeeds() {
		add("store op "+op.Kind.String(), op.AppendWire(nil), nil, func(b []byte) error { return new(cloudstore.Op).UnmarshalWire(b) })
	}
	rep := cloudstore.Reply{Result: cloudstore.Result{Value: []byte("v"), Version: 6, Keys: []string{"a", "b"}},
		Code: schema.CodeStoreFenced, Err: "partition 0: epoch 5 < fence 6"}
	add("store reply", rep.AppendWire(nil), nil, func(b []byte) error { return new(cloudstore.Reply).UnmarshalWire(b) })

	prefixes := 0
	for _, f := range frames {
		if err := f.decode(f.b); err != nil {
			t.Fatalf("%s: the whole frame does not decode: %v", f.name, err)
		}
		for n := range len(f.b) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := f.decode(f.b[:n:n])
			runtime.ReadMemStats(&after)
			if !errors.Is(err, schema.ErrHotFrame) {
				t.Errorf("%s cut to %d of %d bytes: err = %v; want ErrHotFrame", f.name, n, len(f.b), err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s cut to %d of %d bytes: the decoder allocated %d bytes", f.name, n, len(f.b), got)
			}
			prefixes++
		}
	}
	t.Logf("%d frames, %d prefixes refused", len(frames), prefixes)
}

// storeOpSeeds is one request frame per store op kind, fenced and not, plus a
// commit with sets and deletes and a fence whose fields are all zero.
func storeOpSeeds() []cloudstore.Op {
	entries := map[string][]byte{"a": []byte("1"), "b": nil}
	return []cloudstore.Op{
		{Kind: cloudstore.OpGet, Key: "k"},
		{Kind: cloudstore.OpGet, Key: "k", Fence: &cloudstore.Fence{}},
		{Kind: cloudstore.OpList, Key: "wal/", Fence: &cloudstore.Fence{Part: 1, Epoch: 5}},
		{Kind: cloudstore.OpPut, Key: "k", Value: []byte("value")},
		{Kind: cloudstore.OpPutBatch, Entries: entries, Fence: &cloudstore.Fence{Part: 2, Epoch: 1}},
		{Kind: cloudstore.OpCreateBatch, Entries: entries},
		{Kind: cloudstore.OpCAS, Key: "k", Expect: 7, Value: []byte("next"), Fence: &cloudstore.Fence{Epoch: 9}},
		{Kind: cloudstore.OpDelete, Key: "k"},
		{Kind: cloudstore.OpDeleteBatch, Keys: []string{"a", "b", "c"}},
		{Kind: cloudstore.OpApply, Fence: &cloudstore.Fence{Part: 0, Epoch: 3}, Commit: cloudstore.Commit{
			Sets: []cloudstore.KV{{Key: "a", Val: []byte("1"), Ver: 4}, {Key: "b", Ver: 5}},
			Dels: []cloudstore.KD{{Key: "c", Ver: 6}},
		}},
		{Kind: cloudstore.OpPromote, Fence: &cloudstore.Fence{Part: 0, Epoch: 4}},
		{Kind: cloudstore.OpFenceEpoch, Fence: &cloudstore.Fence{}},
	}
}

// checkDecodedCode pins what any decodable response may carry: a code this
// build has a row for — a byte it does not know reads as CodeUnknown, never
// as another failure — and a message only next to a failure.
func checkDecodedCode(t *testing.T, c schema.Code, msg string) {
	t.Helper()
	if c >= schema.NumCodes {
		t.Fatalf("decoder let code byte %d through; the table ends at %d", c, schema.NumCodes)
	}
	if (c == schema.CodeOK) != (c.Class() == 0) || (c == schema.CodeOK && msg != "") {
		t.Fatalf("decoded code %d (%s) with class %v and message %q", c, c.Name(), c.Class(), msg)
	}
}
