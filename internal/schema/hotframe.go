package schema

// Hand-rolled binary codec for the node wire frames: submit frames and their
// responses (every remote event pays one of each, a lone event as a frame of
// one), replication-notify hints (every durable append fans one out per
// peer), migration transfer records, the control plane's request (PlaceReq;
// its acks are SubmitResps) and — laid out beside cloudstore.Op with the
// primitives exported here — the store frames. Gob is reflection-driven and
// re-sends type metadata per frame on the request/response path
// (BenchmarkSubmitReqGob vs BenchmarkSubmitReqHotCodec is the cost of one
// submit request either way); these frames instead get a fixed little-endian
// layout with varint integers, a tagged value encoding for `any` fields, and
// buffer reuse via sync.Pool, so the steady-state ingress path encodes and
// decodes without allocating. No frame between processes is a gob stream; gob is
// only the codec of opaque application values inside a frame (see wire.go).
//
// Frame layout: every hot frame starts with [HotMagic, type byte], and a
// decoder refuses a payload that does not start with its own pair. All
// integers are uvarint or zigzag varint; strings and byte slices are
// length-prefixed.
//
// Decoding: every decoder reads its layout straight through a HotReader and
// checks the reader's one sticky error at the end. A caller acts on a single
// outcome, "frame malformed" (ErrHotFrame), so no read returns an error of
// its own; the first failure is kept and the reader yields zeros after it.
// A decoder writes its receiver as it reads, so the receiver's contents are
// unspecified when it returns an error.
//
// Values (event arguments and results) are encoded with a one-byte tag
// covering the scalar kinds real workloads send — nil, bool, int, int64,
// uint64, float64, string, []byte, ownership.ID — and fall back to an
// embedded EncodeWire (gob) blob for anything else, so exotic payload types
// stay correct, merely slower. A decoded Value's Any has the concrete type a
// gob round trip would give (an int arrives as int, not int64), which
// clients and type assertions rely on.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"aeon/internal/ownership"
)

// HotMagic is the first byte of every hot-codec frame.
const HotMagic byte = 0xA7

// Hot frame type bytes (the second byte of a frame).
const (
	hotTypeSubmitReq       byte = 1
	hotTypeSubmitResp      byte = 2
	hotTypeNotify          byte = 3
	hotTypeTransfer        byte = 4
	hotTypeSubmitBatchReq  byte = 5
	hotTypeSubmitBatchResp byte = 6
	// The store frames: a cloudstore.Op and its Reply, laid out in
	// cloudstore/op.go beside the structs they carry.
	HotTypeStoreReq  byte = 7
	HotTypeStoreResp byte = 8
	hotTypePlaceReq  byte = 9
)

// Value tags for the `any` encoding.
const (
	tagNil    byte = 0
	tagFalse  byte = 1
	tagTrue   byte = 2
	tagInt    byte = 3
	tagInt64  byte = 4
	tagUint64 byte = 5
	tagFloat  byte = 6
	tagString byte = 7
	tagBytes  byte = 8
	tagID     byte = 9
	tagGob    byte = 10
)

// ErrHotFrame is wrapped by every hot-codec decode failure (truncated
// buffer, wrong magic or type byte, corrupt varint), so callers can branch
// on malformed frames without string matching.
var ErrHotFrame = errors.New("schema: malformed hot frame")

// hotMax bounds the buffers PutFrameBuf recycles to one mux read buffer's
// worth, so a buffer an outsized frame grew goes to the GC. Decoded lengths
// need no bound of their own: the reader refuses any length or count larger
// than the bytes left in the frame.
const hotMax = 64 << 10

// SubmitReq is the single-event submit request frame: execute one event on
// the receiving node. Only the benchmark's schema.submit_* rows encode and
// decode it — a node or client sends a lone event as a SubmitBatchReq of
// one — and it goes when those rows do. Hops counts forwards
// already taken, MinSeq is the sender's applied replication sequence (the
// receiver's admission floor), Trace an optional 8-byte trace ID (0 =
// untraced; one zero byte on the wire).
type SubmitReq struct {
	Target ownership.ID
	Method string
	Args   []any
	Hops   uint32
	MinSeq uint64
	Trace  uint64
}

// SubmitResp is the frame of one outcome: SubmitReq's response, and the ack
// every control kind answers with.
type SubmitResp BatchOutcome

// NotifyRec is the hot replication-notify hint: the mutation log reached
// Seq.
type NotifyRec struct {
	Seq uint64
}

// TransferRec ships a stopped migration group's serialized state to the
// destination node (migration step IV over the mesh). States maps member ID
// to its EncodeWire payload; members without an entry keep the state they
// have.
type TransferRec struct {
	Members    []ownership.ID
	From, To   int64
	TotalBytes int64
	MinSeq     uint64
	States     map[uint64][]byte
}

// PlaceReq is the control plane's one request shape, a context and a server:
// "migrate the group rooted at Context to Server" on node.migrate, "did
// Server commit the transfer of the group whose first member is Context" on
// node.transfer.query. Either is answered by a SubmitResp.
type PlaceReq struct {
	Context ownership.ID
	Server  int64
}

// MaxBatchEvents bounds the events one batch frame may carry. Encoders split
// larger batches; the decoder rejects counts above it before allocating.
const MaxBatchEvents = 4096

// HotFrameEvents reports how many application events a payload carries: the
// batch event count for a SubmitBatchReq frame, 1 for everything else. The
// transport uses it to weigh server-side admission so a 128-event batch
// frame takes 128 admission slots, not 1. It only peeks the fixed-size
// prefix, so it is cheap enough for the read loop.
func HotFrameEvents(b []byte) int {
	if len(b) < 2 || b[0] != HotMagic || b[1] != hotTypeSubmitBatchReq {
		return 1
	}
	r := HotReader{b: b, off: 2}
	r.Uvarint() // Hops
	r.Uvarint() // MinSeq
	r.Uvarint() // Trace
	// A failed read yields 0: a malformed frame weighs 1, like an empty one.
	if n := r.Uvarint(); n > 0 && n <= MaxBatchEvents {
		return int(n)
	}
	return 1
}

// ---- frame buffers ----

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// GetFrameBuf returns a pooled byte slice (length 0) to encode or copy a
// frame into. Return it with PutFrameBuf once the frame is no longer
// referenced — for mesh calls, after Call returns (endpoints do not retain
// request payloads); a payload a transport.Message carries is returned by
// its Release.
func GetFrameBuf() *[]byte {
	return framePool.Get().(*[]byte)
}

// PutFrameBuf recycles a buffer obtained from GetFrameBuf.
func PutFrameBuf(b *[]byte) {
	if b == nil || cap(*b) > hotMax {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

// ---- primitives ----
//
// Exported for the one frame family laid out outside this package (the store
// frames, which must sit beside cloudstore.Op and cannot be imported here).

func PutUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func PutVarint(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

func PutString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func PutBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// HotReader walks a frame body with bounds checks and one sticky error. Its
// reads return values only: the first failure is recorded as an ErrHotFrame
// naming what failed and where, and it empties the reader, so every later
// read returns 0, nil or "" and a count of 0. A decoder therefore reads its
// whole layout straight through and returns Err once at the end; arbitrary
// bytes never panic, a failed reader cannot index past the frame, and no
// count it yields can size an allocation beyond the frame's own bytes.
// Header starts it on a frame.
type HotReader struct {
	b    []byte
	off  int
	err  error
	strs string // a copy of b, taken at the first non-empty string value
}

// Err reports the reader's first failure, or nil.
func (r *HotReader) Err() error { return r.err }

// Fail records what as the reader's failure, unless one is already
// recorded, and empties the reader.
func (r *HotReader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrHotFrame, what, r.off)
	}
	r.b, r.off = nil, 0
}

func (r *HotReader) Byte() byte {
	if r.off >= len(r.b) {
		r.Fail("truncated byte")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *HotReader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *HotReader) Varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// take returns the next n bytes of the frame without copying.
func (r *HotReader) take(n uint64) []byte {
	if n > uint64(len(r.b)-r.off) {
		r.Fail("truncated field")
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// LenBytes returns the next length-prefixed field without copying.
func (r *HotReader) LenBytes() []byte { return r.take(r.Uvarint()) }

// Str decodes a length-prefixed string, copying out of the frame (frames
// may live in pooled buffers; decoded values must not alias them).
func (r *HotReader) Str() string { return string(r.LenBytes()) }

// Count decodes a collection's element count, refusing one larger than the
// bytes left in the frame: every element takes at least a byte, so such a
// count is a lie, and the caller is about to size an allocation by it. It
// reads its varint itself: batch decode pays one Count per event, and a call
// through Uvarint showed there (+7 % on BenchmarkSubmitBatchReqHotCodec).
func (r *HotReader) Count() int {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	if r.off += n; v > uint64(len(r.b)-r.off) {
		r.Fail("count exceeds frame")
		return 0
	}
	return int(v)
}

// Header starts the reader on b, which must be a frame of the given type;
// any other b fails the reader.
func (r *HotReader) Header(b []byte, frameType byte) {
	switch {
	case len(b) < 2 || b[0] != HotMagic:
		r.Fail("missing magic")
	case b[1] != frameType:
		r.Fail(fmt.Sprintf("frame type %d, want %d", b[1], frameType))
	default:
		r.b, r.off = b, 2
	}
}

// ---- string interning ----

// Method names are drawn from a small closed set (the frozen schema's
// methods), so the decoder interns them: a map hit with a []byte key
// compiles to zero allocations, making repeated decodes allocation-free.
// Only bounded sets go through here — free-form strings (error messages, app
// data) are copied instead.
//
// Every decoded event reads the table and, past warm-up, nothing writes it,
// so it is an immutable map behind an atomic pointer: a hit takes no lock,
// and a miss copies the map under internMu. internMax bounds what a peer
// sending made-up names can make that copy cost; past it, names are
// returned uninterned.
const internMax = 1024

var (
	internMu  sync.Mutex // serializes writers
	internTab atomic.Pointer[map[string]string]
)

// internTable returns the current table (nil, which reads as empty, until
// the first name is interned).
func internTable() map[string]string {
	if tab := internTab.Load(); tab != nil {
		return *tab
	}
	return nil
}

func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := internTable()[string(b)]; ok { // no alloc: mapaccess with byte-slice key
		return s
	}
	internMu.Lock()
	defer internMu.Unlock()
	old := internTable()
	if s, ok := old[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(old) >= internMax {
		return s
	}
	next := maps.Clone(old)
	if next == nil {
		next = make(map[string]string)
	}
	next[s] = s
	internTab.Store(&next)
	return s
}

// ---- value codec ----

// appendValue encodes one tagged value, an inline one as the int, ID or
// string it is.
func appendValue(dst []byte, v Value) ([]byte, error) {
	switch x := v.any.(type) {
	case inlineInt:
		return PutVarint(append(dst, tagInt), int64(v.num)), nil
	case inlineID:
		return PutUvarint(append(dst, tagID), v.num), nil
	case stringptr:
		return PutString(append(dst, tagString), v.Str()), nil
	case nil:
		return append(dst, tagNil), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case int:
		return PutVarint(append(dst, tagInt), int64(x)), nil
	case int64:
		return PutVarint(append(dst, tagInt64), x), nil
	case uint64:
		return PutUvarint(append(dst, tagUint64), x), nil
	case float64:
		dst = append(dst, tagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case string:
		return PutString(append(dst, tagString), x), nil
	case []byte:
		return PutBytes(append(dst, tagBytes), x), nil
	case ownership.ID:
		return PutUvarint(append(dst, tagID), uint64(x)), nil
	default:
		// Exotic payload type: embed a registered-gob blob. Correct for
		// every RegisterWireType'd type, just not allocation-free.
		blob, err := EncodeWire(x)
		if err != nil {
			return nil, err
		}
		return PutBytes(append(dst, tagGob), blob), nil
	}
}

// readValue decodes one tagged value, an int, an ID or a string inline.
func (r *HotReader) readValue() Value {
	switch tag := r.Byte(); tag {
	case tagNil:
		return Value{}
	case tagFalse:
		return Of(false)
	case tagTrue:
		return Of(true)
	case tagInt:
		return Int(int(r.Varint()))
	case tagInt64:
		return Of(r.Varint())
	case tagUint64:
		return Of(r.Uvarint())
	case tagFloat:
		if b := r.take(8); len(b) == 8 {
			return Of(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		return Value{}
	case tagString:
		// A slice of the reader's one copy of the frame: a frame of many
		// strings copies once, and none of them aliases the frame.
		n := r.Uvarint()
		off := r.off
		if len(r.take(n)) == 0 {
			return Str("")
		}
		if r.strs == "" {
			r.strs = string(r.b)
		}
		return Str(r.strs[off:r.off])
	case tagBytes:
		return Of(bytes.Clone(r.LenBytes()))
	case tagID:
		return ID(ownership.ID(r.Uvarint()))
	case tagGob:
		v, err := DecodeWire(r.LenBytes())
		if err != nil {
			r.Fail(fmt.Sprintf("embedded gob: %v", err))
		}
		return Of(v)
	default:
		r.Fail(fmt.Sprintf("unknown value tag %d", tag))
		return Value{}
	}
}

// ---- SubmitReq ----

// MarshalWire appends the frame to dst and returns the extended slice. Pass
// a pooled buffer (GetFrameBuf) with its length reset to zero to encode
// without allocating.
func (q *SubmitReq) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypeSubmitReq)
	dst = PutUvarint(dst, uint64(q.Target))
	dst = PutString(dst, q.Method)
	dst = PutUvarint(dst, uint64(q.Hops))
	dst = PutUvarint(dst, q.MinSeq)
	dst = PutUvarint(dst, q.Trace)
	dst, err := appendArgs(dst, q.Args, nil)
	if err != nil {
		return nil, fmt.Errorf("submit arg: %w", err)
	}
	return dst, nil
}

// appendArgs encodes the argument list args followed by vals.
func appendArgs(dst []byte, args []any, vals []Value) (_ []byte, err error) {
	dst = PutUvarint(dst, uint64(len(args)+len(vals)))
	for _, a := range args {
		if dst, err = appendValue(dst, Of(a)); err != nil {
			return nil, err
		}
	}
	for _, v := range vals {
		if dst, err = appendValue(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// UnmarshalWire decodes a frame produced by MarshalWire. The receiver's
// Args slice is reused when its capacity suffices, so a long-lived decode
// target reaches steady-state zero allocations; decoded values never alias
// b. The receiver is unspecified when it returns an error.
func (q *SubmitReq) UnmarshalWire(b []byte) error {
	var r HotReader
	r.Header(b, hotTypeSubmitReq)
	q.Target = ownership.ID(r.Uvarint())
	q.Method = intern(r.LenBytes())
	hops := r.Uvarint()
	if hops > math.MaxUint32 {
		r.Fail("hop count overflow")
	}
	q.Hops = uint32(hops)
	q.MinSeq = r.Uvarint()
	q.Trace = r.Uvarint()
	q.Args, _ = r.readArgs(r.Count(), q.Args[:0], nil, false)
	return r.Err()
}

// readArgs appends n decoded arguments to vals, or their Anys to args.
func (r *HotReader) readArgs(n int, args []any, vals []Value, unboxed bool) ([]any, []Value) {
	for range n {
		if v := r.readValue(); unboxed {
			vals = append(vals, v)
		} else {
			args = append(args, v.Any())
		}
	}
	return args, vals
}

// ---- SubmitResp ----

// appendOutcome encodes o with result res: host, code byte, the message only
// when the code says failure — a success costs one zero byte — then res.
func appendOutcome(dst []byte, o *BatchOutcome, res Value) ([]byte, error) {
	dst = append(PutVarint(dst, o.Host), byte(o.Code))
	if o.Code != CodeOK {
		dst = PutString(dst, o.Err)
	}
	return appendValue(dst, res)
}

// outcome decodes what appendOutcome wrote into o, Result left nil, and
// returns the result; an unknown code byte reads as CodeUnknown.
func (r *HotReader) outcome(o *BatchOutcome) Value {
	o.Host = r.Varint()
	o.Code, o.Err, o.Result = Code(r.Byte()).Known(), "", nil
	if o.Code != CodeOK {
		o.Err = r.Str()
	}
	return r.readValue()
}

// MarshalWire appends the frame to dst.
func (p *SubmitResp) MarshalWire(dst []byte) ([]byte, error) {
	return appendOutcome(append(dst, HotMagic, hotTypeSubmitResp), (*BatchOutcome)(p), Of(p.Result))
}

// UnmarshalWire decodes a frame produced by MarshalWire.
func (p *SubmitResp) UnmarshalWire(b []byte) error {
	var r HotReader
	r.Header(b, hotTypeSubmitResp)
	p.Result = r.outcome((*BatchOutcome)(p)).Any()
	return r.Err()
}

// ---- NotifyRec ----

// MarshalWire appends the frame to dst.
func (n *NotifyRec) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypeNotify)
	return PutUvarint(dst, n.Seq), nil
}

// UnmarshalWire decodes a frame produced by MarshalWire.
func (n *NotifyRec) UnmarshalWire(b []byte) error {
	var r HotReader
	r.Header(b, hotTypeNotify)
	n.Seq = r.Uvarint()
	return r.Err()
}

// ---- PlaceReq ----

// MarshalWire appends the frame to dst.
func (q *PlaceReq) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypePlaceReq)
	return PutVarint(PutUvarint(dst, uint64(q.Context)), q.Server), nil
}

// UnmarshalWire decodes a frame produced by MarshalWire.
func (q *PlaceReq) UnmarshalWire(b []byte) error {
	var r HotReader
	r.Header(b, hotTypePlaceReq)
	q.Context = ownership.ID(r.Uvarint())
	q.Server = r.Varint()
	return r.Err()
}

// ---- TransferRec ----

// MarshalWire appends the frame to dst.
func (t *TransferRec) MarshalWire(dst []byte) ([]byte, error) {
	dst = append(dst, HotMagic, hotTypeTransfer)
	dst = PutVarint(dst, t.From)
	dst = PutVarint(dst, t.To)
	dst = PutVarint(dst, t.TotalBytes)
	dst = PutUvarint(dst, t.MinSeq)
	dst = PutUvarint(dst, uint64(len(t.Members)))
	for _, id := range t.Members {
		dst = PutUvarint(dst, uint64(id))
	}
	dst = PutUvarint(dst, uint64(len(t.States)))
	// Iterate members (ordered) rather than the map so the encoding is
	// deterministic; entries for non-members cannot exist by construction
	// but are guarded below anyway.
	written := 0
	for _, id := range t.Members {
		b, ok := t.States[uint64(id)]
		if !ok {
			continue
		}
		dst = PutUvarint(dst, uint64(id))
		dst = PutBytes(dst, b)
		written++
	}
	if written != len(t.States) {
		return nil, fmt.Errorf("schema: transfer frame has %d states for non-members", len(t.States)-written)
	}
	return dst, nil
}

// UnmarshalWire decodes a frame produced by MarshalWire.
func (t *TransferRec) UnmarshalWire(b []byte) error {
	var r HotReader
	r.Header(b, hotTypeTransfer)
	t.From = r.Varint()
	t.To = r.Varint()
	t.TotalBytes = r.Varint()
	t.MinSeq = r.Uvarint()
	t.Members = make([]ownership.ID, r.Count())
	for i := range t.Members {
		t.Members[i] = ownership.ID(r.Uvarint())
	}
	n := r.Count()
	t.States = make(map[uint64][]byte, n)
	for range n {
		id := r.Uvarint()
		t.States[id] = bytes.Clone(r.LenBytes())
	}
	return r.Err()
}

// ---- SubmitBatchReq ----

// BatchEvent is one event inside a SubmitBatchReq. Its arguments are Args (a
// client's) followed by Vals (UnmarshalFrame's), so a node forwards a decoded
// event as it came.
type BatchEvent struct {
	Target ownership.ID
	Method string
	Args   []any
	Vals   []Value
}

// SubmitBatchReq is the hot batched submit frame: execute N independent
// events on the receiving node in one exchange, amortizing the per-frame
// wakeup and window costs across the batch. Hops and MinSeq apply to the
// frame as a whole (one admission, one hop budget); outcomes are per-event
// and independent — see SubmitBatchResp.
//
// Targets are interned against the frame itself: coalesced batches often
// repeat a target (or a small set of them), so each event encodes either a
// back-reference to an earlier event's target or a raw ID, never the same
// varint twice in a row.
type SubmitBatchReq struct {
	Hops   uint32
	MinSeq uint64
	// Trace is an optional 8-byte trace ID covering the whole frame (0 =
	// untraced); forwarded sub-batches inherit it.
	Trace  uint64
	Events []BatchEvent
}

// BatchOutcome is the result of one event. Host is the authoritative
// placement of the event's dominator after execution (0 = unknown), which
// stale callers use to repair their routing caches. A failure travels
// in-band as its Code (CodeOK = success) and message — see Err; the message
// is on the wire only next to a non-zero code. One event's failure never
// poisons its batchmates — each slot stands alone.
type BatchOutcome struct {
	Result any
	Host   int64
	Err    string
	Code   Code
}

// SubmitBatchResp carries one BatchOutcome per request event, index-aligned.
type SubmitBatchResp struct {
	Outcomes []BatchOutcome
}

// batchTargetScan bounds how far the encoder looks back for an equal target.
// Coalesced batches are either single-target runs (hit at distance 1) or
// small mixed sets; a short window keeps encoding O(n) in the worst case.
const batchTargetScan = 8

// MarshalWire appends the frame to dst. Pass a pooled buffer (GetFrameBuf)
// to encode without allocating.
func (q *SubmitBatchReq) MarshalWire(dst []byte) ([]byte, error) {
	return q.MarshalWirePick(dst, nil)
}

// MarshalWirePick appends a frame carrying only the events q.Events[pick[0]],
// q.Events[pick[1]], … in that order (every event, in order, when pick is
// nil), so a sender that splits one batch across destinations encodes each
// share from the caller's slice instead of copying it into a frame-shaped
// one first.
func (q *SubmitBatchReq) MarshalWirePick(dst []byte, pick []int) ([]byte, error) {
	n := len(q.Events)
	if pick != nil {
		n = len(pick)
	}
	if n > MaxBatchEvents {
		return nil, fmt.Errorf("schema: batch of %d events exceeds MaxBatchEvents", n)
	}
	dst = append(dst, HotMagic, hotTypeSubmitBatchReq)
	dst = PutUvarint(dst, uint64(q.Hops))
	dst = PutUvarint(dst, q.MinSeq)
	dst = PutUvarint(dst, q.Trace)
	dst = PutUvarint(dst, uint64(n))
	var err error
	var recent [batchTargetScan]ownership.ID // targets of the last events encoded
	for k := 0; k < n; k++ {
		i := k
		if pick != nil {
			i = pick[k]
		}
		ev := &q.Events[i]
		// Target: 0 = raw ID follows; j>0 = same target as the event j back.
		back := uint64(0)
		for j := 1; j <= batchTargetScan && j <= k; j++ {
			if recent[(k-j)%batchTargetScan] == ev.Target {
				back = uint64(j)
				break
			}
		}
		recent[k%batchTargetScan] = ev.Target
		dst = PutUvarint(dst, back)
		if back == 0 {
			dst = PutUvarint(dst, uint64(ev.Target))
		}
		if dst, err = appendArgs(PutString(dst, ev.Method), ev.Args, ev.Vals); err != nil {
			return nil, fmt.Errorf("batch event %d arg: %w", i, err)
		}
	}
	return dst, nil
}

// UnmarshalWire decodes a frame produced by MarshalWire. The receiver's
// Events slice — and each event's Args slice — is reused when capacity
// suffices, so a long-lived decode target reaches steady-state zero
// allocations; decoded values never alias b. The receiver is unspecified
// when it returns an error; the next decode into it re-extends over it.
func (q *SubmitBatchReq) UnmarshalWire(b []byte) error { return q.unmarshal(b, false) }

// UnmarshalFrame decodes like UnmarshalWire into Vals for a receiver that is
// recycled between frames while the events it decoded may live on: the
// Events slice is reused, but every event's Vals is carved — with a full
// slice expression, so appending to one never writes its neighbour — from
// one []Value allocated fresh for this frame, and its strings from one copy
// of b. A handler that keeps its args therefore holds memory no later frame
// will write, exactly as if each event had its own slice.
func (q *SubmitBatchReq) UnmarshalFrame(b []byte) error { return q.unmarshal(b, true) }

func (q *SubmitBatchReq) unmarshal(b []byte, freshArgs bool) error {
	var r HotReader
	r.Header(b, hotTypeSubmitBatchReq)
	hops := r.Uvarint()
	if hops > math.MaxUint32 {
		r.Fail("hop count overflow")
	}
	q.Hops = uint32(hops)
	q.MinSeq = r.Uvarint()
	q.Trace = r.Uvarint()
	n := r.Uvarint()
	if n > MaxBatchEvents {
		r.Fail("batch event count overflow")
		n = 0
	}
	evs := q.Events
	if uint64(cap(evs)) < n {
		evs = make([]BatchEvent, n)
	} else {
		// Re-extend over prior entries: their Args capacity is what makes
		// repeated decodes allocation-free.
		evs = evs[:n]
	}
	var arena []Value // freshArgs: the frame's one args allocation
	for i := range evs {
		e := &evs[i]
		switch back := r.Uvarint(); {
		case back == 0:
			e.Target = ownership.ID(r.Uvarint())
		case back > uint64(i):
			r.Fail("batch target back-reference out of range")
		default:
			e.Target = evs[uint64(i)-back].Target
		}
		method := r.LenBytes()
		// Coalesced batches are runs of one method: try the previous event's
		// before the table.
		if i > 0 && string(method) == evs[i-1].Method {
			e.Method = evs[i-1].Method
		} else {
			e.Method = intern(method)
		}
		na := r.Count()
		vals := e.Vals[:0]
		if freshArgs {
			if cap(arena)-len(arena) < na {
				// Size for the remaining events at this one's arity; every
				// value takes at least a byte of what is left of the frame.
				arena = make([]Value, 0, min(na*(len(evs)-i), len(r.b)-r.off))
			}
			vals = arena[len(arena) : len(arena) : len(arena)+na]
			arena = arena[:len(arena)+na]
		}
		e.Args, e.Vals = r.readArgs(na, e.Args[:0], vals, freshArgs)
	}
	q.Events = evs
	return r.Err()
}

// ---- SubmitBatchResp ----

// MarshalWire appends the frame to dst.
func (p *SubmitBatchResp) MarshalWire(dst []byte) ([]byte, error) { return p.marshal(dst, nil) }

// MarshalResults is MarshalWire with results[i], unboxed, as outcome i's result.
func (p *SubmitBatchResp) MarshalResults(dst []byte, results []Value) ([]byte, error) {
	return p.marshal(dst, results[:len(p.Outcomes)])
}

// marshal encodes outcome i with results[i], or its Result if results is nil.
func (p *SubmitBatchResp) marshal(dst []byte, results []Value) ([]byte, error) {
	if len(p.Outcomes) > MaxBatchEvents {
		return nil, fmt.Errorf("schema: batch of %d outcomes exceeds MaxBatchEvents", len(p.Outcomes))
	}
	dst = append(dst, HotMagic, hotTypeSubmitBatchResp)
	dst = PutUvarint(dst, uint64(len(p.Outcomes)))
	var err error
	for i := range p.Outcomes {
		res := Of(p.Outcomes[i].Result)
		if results != nil {
			res = results[i]
		}
		if dst, err = appendOutcome(dst, &p.Outcomes[i], res); err != nil {
			return nil, fmt.Errorf("batch outcome %d: %w", i, err)
		}
	}
	return dst, nil
}

// UnmarshalWire decodes a frame produced by MarshalWire. The receiver's
// Outcomes slice is reused when capacity suffices.
func (p *SubmitBatchResp) UnmarshalWire(b []byte) error { return p.unmarshal(b, nil) }

// UnmarshalResults is UnmarshalWire into results, unboxed, leaving Result nil.
func (p *SubmitBatchResp) UnmarshalResults(b []byte, results []Value) ([]Value, error) {
	err := p.unmarshal(b, &results)
	return results, err
}

// unmarshal decodes the results into *results, or into each Result if nil.
func (p *SubmitBatchResp) unmarshal(b []byte, results *[]Value) error {
	var r HotReader
	r.Header(b, hotTypeSubmitBatchResp)
	n := r.Uvarint()
	if n > MaxBatchEvents {
		r.Fail("batch outcome count overflow")
		n = 0
	}
	if uint64(cap(p.Outcomes)) < n {
		p.Outcomes = make([]BatchOutcome, n)
	} else {
		p.Outcomes = p.Outcomes[:n]
	}
	if results != nil {
		*results = slices.Grow((*results)[:0], int(n))[:n]
	}
	for i := range p.Outcomes {
		if res := r.outcome(&p.Outcomes[i]); results != nil {
			(*results)[i] = res
		} else {
			p.Outcomes[i].Result = res.Any()
		}
	}
	return r.Err()
}
