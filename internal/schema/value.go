package schema

// Value is a method's result as it travels inside the runtime: from a handler
// to the Sync, Async or Crab that called it, and up to the edge where a
// top-level event's result leaves the runtime as an `any` (Value.Any).
//
// A sub-call's result is usually a small integer — a count, a balance, a
// total — and an `int` ≥ 256 stored in an `any` is a heap allocation. A Value
// holds an int inline instead, so a chain of synchronous calls allocates
// nothing for its results; every other kind is boxed exactly as an `any`
// would be (Of). Like log/slog.Value it is three words: num carries an inline
// int, and any carries either the boxed value or the marker saying num is the
// value. The zero Value is a nil result.
type Value struct {
	_   [0]func() // == would compare representations, not values
	num uint64
	any any
}

// inlineInt in Value.any marks num as the value, an int. Storing the empty
// struct in an interface allocates nothing.
type inlineInt struct{}

// Int returns a Value holding n inline.
func Int(n int) Value { return Value{num: uint64(n), any: inlineInt{}} }

// Of returns a Value holding v as it is: an `any` is kept in its box, so a
// result forwarded from elsewhere is not boxed again, and Of(nil) is the zero
// Value.
func Of(v any) Value { return Value{any: v} }

// Any returns the result as an `any` of its concrete type: Int(n).Any() is an
// int, Of(v).Any() is v. It boxes an inline int, which is why the runtime
// calls it once, where a top-level event's result leaves it.
func (v Value) Any() any {
	if _, ok := v.any.(inlineInt); ok {
		return int(v.num)
	}
	return v.any
}

// Int returns the result as an int. Like the type assertion v.(int) on the
// `any` the Value stands for, it panics when the result is not an int.
func (v Value) Int() int {
	if _, ok := v.any.(inlineInt); ok {
		return int(v.num)
	}
	return v.any.(int)
}
