package schema

// Central gob type registry for the opaque application values AEON moves
// across a process or storage boundary: event arguments and results of types
// the hot codec does not know (hotframe.go's tagGob), a moved group's
// context states (one EncodeWires stream per transfer), and eManager
// checkpoints. Registering in one place keeps the codecs from drifting — a
// type registered for checkpoints is automatically decodable in a transfer
// and vice versa, and a payload type forgotten by one subsystem fails the
// same way everywhere instead of only on the rarely exercised path. The
// runtime's own records (frames, log records) are hot-codec layouts, not
// gob.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"

	"aeon/internal/ownership"
)

var (
	wireMu    sync.Mutex
	wireTypes = make(map[reflect.Type]bool)
)

// RegisterWireType registers a concrete type with the shared gob codec so
// values of that type can travel inside `any`-typed fields (event arguments
// and results, checkpointed context state, migration transfer records).
// Registration is idempotent per concrete type; call it from init or setup
// code for every application payload type.
func RegisterWireType(v any) {
	if v == nil {
		return
	}
	t := reflect.TypeOf(v)
	wireMu.Lock()
	defer wireMu.Unlock()
	if wireTypes[t] {
		return
	}
	gob.Register(v)
	wireTypes[t] = true
}

// RegisterWireTypes registers several payload types at once.
func RegisterWireTypes(vs ...any) {
	for _, v := range vs {
		RegisterWireType(v)
	}
}

func init() {
	// Types every AEON deployment exchanges: context IDs appear in event
	// arguments and results (gob pre-registers the ordinary scalars).
	RegisterWireTypes(
		ownership.ID(0),
		[]ownership.ID(nil),
		[]any(nil),
		map[string]any(nil),
	)
}

// wireBox wraps an arbitrary value so gob records its concrete type; the
// single box type is shared by checkpoints, migration transfer records, and
// node wire frames.
type wireBox struct {
	V any
}

// EncodeWire gob-encodes one value of any registered type: a stream of one.
func EncodeWire(v any) ([]byte, error) { return EncodeWires([]any{v}) }

// DecodeWire decodes a value produced by EncodeWire.
func DecodeWire(b []byte) (any, error) {
	vs, err := DecodeWires(b, 1)
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// EncodeWires gob-encodes vs as one stream, so each type's descriptor is
// sent once however many values carry it.
func EncodeWires(vs []any) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range vs {
		if err := enc.Encode(wireBox{V: v}); err != nil {
			return nil, fmt.Errorf("schema: encode wire value: %w", err)
		}
	}
	return buf.Bytes(), nil
}

// DecodeWires decodes the n values of a stream EncodeWires produced.
func DecodeWires(b []byte, n int) ([]any, error) {
	dec := gob.NewDecoder(bytes.NewReader(b))
	vs := make([]any, n)
	for i := range vs {
		var box wireBox
		if err := dec.Decode(&box); err != nil {
			return nil, fmt.Errorf("schema: decode wire value %d of %d: %w", i+1, n, err)
		}
		vs[i] = box.V
	}
	return vs, nil
}
