package schema

import (
	"unsafe"

	"aeon/internal/ownership"
)

// Value is a method's argument or result as it travels: from a caller into a
// handler and back, and over the wire from a decoded frame into the handler
// and from the handler into SubmitBatch's result slots. It becomes an `any`
// (Value.Any) only where an API returns one, like Submit.
//
// An int (from 256 up), a context ID or a string in an `any` is a heap
// allocation; a Value holds them inline, so a chain of synchronous calls
// allocates nothing for what it passes, and every other kind is boxed as an
// `any` would be (Of). Like log/slog.Value it is three words: num carries an
// inline int, ID or string length, and any the boxed value or the marker
// saying how num is read (for a string, its data pointer). The zero Value is
// nil.
type Value struct {
	_   [0]func() // == would compare representations, not values
	num uint64
	any any
}

// inlineInt and inlineID in Value.any mark num as an int or an ownership.ID,
// stringptr as the length of the string it points to; none allocates when
// stored in an interface.
type (
	inlineInt struct{}
	inlineID  struct{}
	stringptr *byte
)

// Int returns a Value holding n inline.
func Int(n int) Value { return Value{num: uint64(n), any: inlineInt{}} }

// ID returns a Value holding id inline.
func ID(id ownership.ID) Value { return Value{num: uint64(id), any: inlineID{}} }

// Str returns a Value holding s inline; it keeps s's bytes alive, as s would.
func Str(s string) Value { return Value{num: uint64(len(s)), any: stringptr(unsafe.StringData(s))} }

// Of returns a Value holding v as it is: an `any` is kept in its box, so an
// argument or result forwarded from elsewhere is not boxed again, and Of(nil)
// is the zero Value.
func Of(v any) Value { return Value{any: v} }

// AppendValues appends args to dst with Of: an `...any` API's conversion.
func AppendValues(dst []Value, args []any) []Value {
	for _, a := range args {
		dst = append(dst, Of(a))
	}
	return dst
}

// Any returns the value as an `any` of its concrete type: Int(n).Any() is an
// int, ID(id).Any() an ownership.ID, Str(s).Any() a string, Of(v).Any() is v.
// It boxes an inline value, so it is called only where an API must return an
// `any`.
func (v Value) Any() any {
	switch p := v.any.(type) {
	case inlineInt:
		return int(v.num)
	case inlineID:
		return ownership.ID(v.num)
	case stringptr:
		return unsafe.String(p, v.num)
	}
	return v.any
}

// Int returns the value as an int. Like the type assertion v.(int) on the
// `any` the Value stands for, it panics when the value is not an int.
func (v Value) Int() int {
	if _, ok := v.any.(inlineInt); ok {
		return int(v.num)
	}
	return v.any.(int)
}

// ID returns the value as an ownership.ID, inline or boxed; like Int, it
// panics on any other kind.
func (v Value) ID() ownership.ID {
	if _, ok := v.any.(inlineID); ok {
		return ownership.ID(v.num)
	}
	return v.any.(ownership.ID)
}

// Str returns the value as a string, inline or boxed; like Int, it panics on
// any other kind.
func (v Value) Str() string {
	if p, ok := v.any.(stringptr); ok {
		return unsafe.String(p, v.num)
	}
	return v.any.(string)
}
