package node

// The node side of the wire protocol (the kinds and their frames are in
// schema/kinds.go): the control kinds' acks and the pooled send path.

import (
	"context"

	"aeon/internal/schema"
	"aeon/internal/transport"
)

// ErrTooManyHops is returned when a submit frame exhausts its forwarding
// budget — the placement directories of the involved nodes disagree
// persistently (a bug or a torn deployment), so the event fails typed
// instead of bouncing forever.
var ErrTooManyHops error = schema.CodeTooManyHops

// ack renders a control handler's outcome as the response frame every
// control kind answers with. An error no layer gave a code reads as
// CodeUnknown: a migration that failed midway converges through its WAL, and
// the caller cannot tell how far it got.
func ack(kind string, out schema.SubmitResp, err error) (transport.Message, error) {
	if err != nil {
		out.Code, out.Err = schema.CodeOf(err), err.Error()
	}
	payload, err := out.MarshalWire(nil)
	return transport.Message{Kind: kind, Payload: payload}, err
}

// acked reads what ack wrote: the peer handler's error, nil on success.
func acked(raw transport.Message) error {
	var resp schema.SubmitResp
	if err := resp.UnmarshalWire(raw.Payload); err != nil {
		return err
	}
	return schema.Err(resp.Code, resp.Err)
}

// sendHot encodes one frame into a pooled buffer and sends it to a peer under
// the caller's context. No retry on failure — the outcome is ambiguous and
// events are not idempotent.
func sendHot(ctx context.Context, ep transport.Endpoint, to transport.NodeID, kind string, encode func(dst []byte) ([]byte, error)) (transport.Message, error) {
	buf := schema.GetFrameBuf()
	defer schema.PutFrameBuf(buf) // endpoints do not retain payloads past Call
	payload, err := encode((*buf)[:0])
	if err != nil {
		return transport.Message{}, err
	}
	*buf = payload
	return ep.Call(ctx, to, transport.Message{Kind: kind, Payload: payload})
}
