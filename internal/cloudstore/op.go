package cloudstore

import (
	"fmt"

	"aeon/internal/schema"
)

// Kind names one store operation.
type Kind uint8

// The client kinds (OpGet…OpDeleteBatch) are what API callers issue; the
// replica kinds (OpApply, OpPromote, OpFenceEpoch) are what a Replicated
// client issues to the replicas of its partition and always carry a Fence.
const (
	OpGet Kind = iota + 1
	OpList
	OpPut
	OpPutBatch
	OpCreateBatch
	OpCAS
	OpDelete
	OpDeleteBatch
	// OpApply installs Op.Commit on a follower. Sets and deletes apply only
	// if their primary-assigned version is newer than the key's applied
	// high-water mark, so replayed or reordered commits converge to the
	// primary's order.
	OpApply
	// OpPromote raises the partition's fence to Fence.Epoch and returns the
	// fence in force in Result.Version. It is a pure fence advance:
	// primaryship is derived from the epoch (see Replicated), and failover
	// spreads the same epoch across the set until a majority holds it. An
	// equal claim is idempotent.
	OpPromote
	// OpFenceEpoch reports the highest fence epoch accepted for Fence.Part
	// in Result.Version (zero if none); Fence.Epoch is ignored.
	OpFenceEpoch
	kindEnd
)

// kinds is the one classification of store operations. A Kind without a row
// here is refused by every Doer (and fails TestKindTableComplete).
var kinds = [kindEnd]struct {
	name    string
	read    bool // never mutates data or fence; counted as a read
	replica bool // replica-plane op: requires a Fence, refused by clients' Do
}{
	OpGet:         {name: "get", read: true},
	OpList:        {name: "list", read: true},
	OpPut:         {name: "put"},
	OpPutBatch:    {name: "putbatch"},
	OpCreateBatch: {name: "createbatch"},
	OpCAS:         {name: "cas"},
	OpDelete:      {name: "delete"},
	OpDeleteBatch: {name: "deletebatch"},
	OpApply:       {name: "apply", replica: true},
	OpPromote:     {name: "promote", replica: true},
	OpFenceEpoch:  {name: "fence-epoch", read: true, replica: true},
}

func (k Kind) valid() bool   { return k < kindEnd && kinds[k].name != "" }
func (k Kind) reads() bool   { return k.valid() && kinds[k].read }
func (k Kind) replica() bool { return k.valid() && kinds[k].replica }

func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kinds[k].name
}

// Fence is the partition and fence epoch of the caller's view. A replica
// that has accepted a newer epoch for the partition refuses the op with
// ErrFenced, so writes *and reads* addressed to a deposed primary fail
// instead of silently executing against (or serving) a stale view. Fenced
// writes raise the replica's accepted epoch — durably, on journaling
// backends — when they carry a newer one; fenced reads never move it.
type Fence struct {
	Part  int
	Epoch uint64
}

// Op is one store operation as a value: the same struct is executed by a
// Store, routed by a Partitioned, replicated by a Replicated and carried
// over the mesh by node.RemoteStore.
//
// Key is the key of the single-key kinds and the prefix of OpList; Keys is
// OpDeleteBatch's; Entries is OpPutBatch's and OpCreateBatch's; Expect is
// OpCAS's; Commit is OpApply's. Fence is optional on client kinds and nil
// means unfenced — an op that carries a Fence with epoch 0 is still fenced,
// and a replica whose fence is higher refuses it.
type Op struct {
	Kind    Kind
	Key     string
	Keys    []string
	Value   []byte
	Entries map[string][]byte
	Expect  uint64
	Commit  Commit
	Fence   *Fence
}

// Result is what an Op returns. Version is the version read (OpGet), the
// version assigned (OpPut, OpCAS), the tombstone version (OpDelete), the
// highest version assigned (batches — every key, present or missing,
// consumes one in sorted key order, so per-key versions are reconstructible)
// or a fence epoch (OpPromote, OpFenceEpoch).
//
// On error the Result is zero, with one exception: a fence refusal reports
// the accepted epoch in Version next to ErrFenced, so the refused caller can
// adopt the newer view without a second round trip.
type Result struct {
	Value   []byte
	Version uint64
	Keys    []string
}

// Reply is what a store replica answers an Op with over the mesh: the Result
// and the in-band error as its code and message (schema.Err rebuilds it). The
// Result rides even next to an error — a fence refusal carries the accepted
// epoch.
type Reply struct {
	Result Result
	Code   schema.Code
	Err    string
}

// Doer executes store operations.
type Doer interface {
	Do(Op) (Result, error)
}

// Typed spells the API methods over a Doer. Every store client embeds it
// pointed at itself, so each method has exactly one body in the tree.
type Typed struct{ d Doer }

// NewTyped returns the API methods over d.
func NewTyped(d Doer) Typed { return Typed{d: d} }

// Get returns the value and version stored at key.
func (t Typed) Get(key string) ([]byte, uint64, error) {
	res, err := t.d.Do(Op{Kind: OpGet, Key: key})
	return res.Value, res.Version, err
}

// Put unconditionally stores value at key and returns the new version.
func (t Typed) Put(key string, value []byte) (uint64, error) {
	res, err := t.d.Do(Op{Kind: OpPut, Key: key, Value: value})
	return res.Version, err
}

// PutBatch stores every entry in one round trip: the per-operation latency
// is charged once for the whole batch (one RPC to the storage service), and
// the writes apply atomically under the store lock. Each key still receives
// its own fresh version, assigned in sorted key order so batches are
// deterministic. Returns the highest version assigned.
func (t Typed) PutBatch(entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	res, err := t.d.Do(Op{Kind: OpPutBatch, Entries: entries})
	return res.Version, err
}

// CreateBatch atomically creates every entry — one charged write — failing
// with ErrVersionMismatch (and writing nothing) if any key already exists.
// Concurrent writers racing to create the same generation of keys collide on
// the first common key instead of silently overwriting each other, which is
// what makes CAS-style read-recompute-retry loops possible over batches.
func (t Typed) CreateBatch(entries map[string][]byte) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	res, err := t.d.Do(Op{Kind: OpCreateBatch, Entries: entries})
	return res.Version, err
}

// CAS stores value at key only if the current version equals expect.
// expect == 0 means "key must not exist" (create).
func (t Typed) CAS(key string, expect uint64, value []byte) (uint64, error) {
	res, err := t.d.Do(Op{Kind: OpCAS, Key: key, Expect: expect, Value: value})
	return res.Version, err
}

// Delete removes key. Deleting a missing key is an error so callers notice
// protocol bugs.
func (t Typed) Delete(key string) error {
	_, err := t.d.Do(Op{Kind: OpDelete, Key: key})
	return err
}

// DeleteBatch removes every key in one round trip: one charged write, with
// the removals applied atomically under the store lock. Missing keys are
// ignored — callers use it to prune superseded entries (e.g. old checkpoint
// sequences) and a concurrent pruner is not a protocol error.
func (t Typed) DeleteBatch(keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	_, err := t.d.Do(Op{Kind: OpDeleteBatch, Keys: keys})
	return err
}

// List returns the keys with the given prefix in sorted order.
func (t Typed) List(prefix string) ([]string, error) {
	res, err := t.d.Do(Op{Kind: OpList, Key: prefix})
	return res.Keys, err
}

// The wire form. An Op and its Reply cross the mesh as hot-codec frames
// (schema/hotframe.go: magic, type byte, varint integers, length-prefixed
// strings and bytes), laid out here so that the field set and the byte layout
// change together. The layout is positional — the kind byte, the fence behind
// a presence byte, then every field in declaration order — so an unused field
// costs its one zero byte. A zero-length value, key list or map decodes as nil.
// The decoders read several fields inside one composite literal; Go evaluates
// the calls there left to right, which is the layout order.

// AppendWire appends op's request frame to dst.
func (op *Op) AppendWire(dst []byte) []byte {
	dst = append(dst, schema.HotMagic, schema.HotTypeStoreReq, byte(op.Kind))
	if f := op.Fence; f != nil {
		dst = schema.PutUvarint(schema.PutVarint(append(dst, 1), int64(f.Part)), f.Epoch)
	} else {
		dst = append(dst, 0)
	}
	dst = schema.PutString(dst, op.Key)
	dst = appendKeys(dst, op.Keys)
	dst = schema.PutBytes(dst, op.Value)
	dst = schema.PutUvarint(dst, uint64(len(op.Entries)))
	for k, v := range op.Entries {
		dst = schema.PutBytes(schema.PutString(dst, k), v)
	}
	dst = schema.PutUvarint(dst, op.Expect)
	dst = schema.PutUvarint(dst, uint64(len(op.Commit.Sets)))
	for _, kv := range op.Commit.Sets {
		dst = schema.PutUvarint(schema.PutBytes(schema.PutString(dst, kv.Key), kv.Val), kv.Ver)
	}
	dst = schema.PutUvarint(dst, uint64(len(op.Commit.Dels)))
	for _, kd := range op.Commit.Dels {
		dst = schema.PutUvarint(schema.PutString(dst, kd.Key), kd.Ver)
	}
	return dst
}

// UnmarshalWire decodes a frame AppendWire produced. The bytes come from
// another process: a kind without a row in kinds fails the reader before any
// field is read, every count is checked against the bytes left
// (HotReader.Count), and everything decoded is copied out of b, which may be
// the caller's pooled buffer, recycled while a store still holds the op's
// keys and values. The op is unspecified when it returns an error.
func (op *Op) UnmarshalWire(b []byte) error {
	var r schema.HotReader
	r.Header(b, schema.HotTypeStoreReq)
	k := Kind(r.Byte())
	if !k.valid() {
		r.Fail(fmt.Sprintf("unknown store op kind %d", k))
	}
	*op = Op{Kind: k}
	if r.Byte() != 0 {
		op.Fence = &Fence{Part: int(r.Varint()), Epoch: r.Uvarint()}
	}
	op.Key = r.Str()
	op.Keys = readKeys(&r)
	op.Value = readBytes(&r)
	if n := r.Count(); n > 0 {
		op.Entries = make(map[string][]byte, n)
		for range n {
			key := r.Str()
			op.Entries[key] = readBytes(&r)
		}
	}
	op.Expect = r.Uvarint()
	op.Commit.Sets = make([]KV, r.Count())
	for i := range op.Commit.Sets {
		op.Commit.Sets[i] = KV{Key: r.Str(), Val: readBytes(&r), Ver: r.Uvarint()}
	}
	op.Commit.Dels = make([]KD, r.Count())
	for i := range op.Commit.Dels {
		op.Commit.Dels[i] = KD{Key: r.Str(), Ver: r.Uvarint()}
	}
	return r.Err()
}

// AppendWire appends the response frame to dst: the code byte, the message
// only next to a failure, then the Result.
func (p *Reply) AppendWire(dst []byte) []byte {
	dst = append(dst, schema.HotMagic, schema.HotTypeStoreResp, byte(p.Code))
	if p.Code != schema.CodeOK {
		dst = schema.PutString(dst, p.Err)
	}
	dst = schema.PutBytes(dst, p.Result.Value)
	dst = schema.PutUvarint(dst, p.Result.Version)
	return appendKeys(dst, p.Result.Keys)
}

// UnmarshalWire decodes a frame AppendWire produced, under Op.UnmarshalWire's
// rules; a code byte this build does not know reads as CodeUnknown.
func (p *Reply) UnmarshalWire(b []byte) error {
	var r schema.HotReader
	r.Header(b, schema.HotTypeStoreResp)
	*p = Reply{Code: schema.Code(r.Byte()).Known()}
	if p.Code != schema.CodeOK {
		p.Err = r.Str()
	}
	p.Result = Result{Value: readBytes(&r), Version: r.Uvarint(), Keys: readKeys(&r)}
	return r.Err()
}

func appendKeys(dst []byte, keys []string) []byte {
	dst = schema.PutUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = schema.PutString(dst, k)
	}
	return dst
}

func readKeys(r *schema.HotReader) []string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = r.Str()
	}
	return keys
}

// readBytes copies the next length-prefixed value out of the frame.
func readBytes(r *schema.HotReader) []byte {
	return append([]byte(nil), r.LenBytes()...)
}
