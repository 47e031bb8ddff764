package schema

// The error taxonomy. Every failure that can cross a process boundary is one
// Code — one byte on the wire — and the table below is the only place that
// says what a code is called, how it reads and what its caller may do about
// it. The sentinels of core, node, cloudstore, replication, migration and
// transport are named aliases of their codes (var ErrX error = schema.CodeX),
// so errors.Is holds on either side of the wire with no mapping in between.

import "errors"

// RetryClass is what a failure says about the operation it answers, and so
// what its caller may do next.
type RetryClass uint8

const (
	NotExecuted    RetryClass = iota + 1 // no effect; sending it again is safe
	ExecutedFailed                       // it ran and this is its answer; sending it again repeats the answer
	OutcomeUnknown                       // may or may not have taken effect: a lost reply, a missed quorum, an error nobody classified
)

func (c RetryClass) String() string {
	names := [...]string{"invalid", "not-executed", "executed-and-failed", "unknown"}
	if int(c) >= len(names) {
		c = 0
	}
	return names[c]
}

// Code is a wire-stable error code. It implements error, so a code is its
// own sentinel. Codes are appended, never renumbered.
type Code uint8

const (
	CodeOK      Code = iota // the zero code of a successful outcome; not an error
	CodeApp                 // a handler's own failure: an error the application returned that carries no code
	CodeUnknown             // an error no layer classified, or a code byte this build does not know
	CodeUnknownContext
	CodeUnknownMethod
	CodeNotHosted // the addressed process does not embody the server (or store) the request needs
	CodeTooManyHops
	CodeBackpressure
	CodeClosed
	CodeMigrating
	CodeAcquireTimeout // can fire inside a sub-call, after the event's handler already wrote state
	CodeReplicaLagging
	CodeStoreNotFound        // key-state answer: the store ran the op
	CodeStoreVersionMismatch // key-state answer: the store ran the op
	CodeStoreUnavailable     // a failed replica, or a write its primary took that missed a majority
	CodeStoreFenced
	CodeLinkPartitioned // the three link failures cannot tell a lost request from a lost reply
	CodeLinkClosed
	CodeLinkDropped
	CodeLinkNoNode
	NumCodes // bounds the table; a byte at or past it reads as CodeUnknown
)

var codeTable = [NumCodes]struct {
	name  string // stable: the aeon_errors_total label and the README row
	msg   string
	class RetryClass
}{
	CodeOK:                   {name: "ok"},
	CodeApp:                  {"app", "application error", ExecutedFailed},
	CodeUnknown:              {"unknown", "unclassified error", OutcomeUnknown},
	CodeUnknownContext:       {"unknown-context", "core: unknown context", NotExecuted},
	CodeUnknownMethod:        {"unknown-method", "core: unknown method", NotExecuted},
	CodeNotHosted:            {"not-hosted", "core: not hosted by this process", NotExecuted},
	CodeTooManyHops:          {"too-many-hops", "node: submit exceeded forwarding hop budget", NotExecuted},
	CodeBackpressure:         {"backpressure", "core: server executor queue full", NotExecuted},
	CodeClosed:               {"closed", "core: runtime closed", NotExecuted},
	CodeMigrating:            {"migrating", "core: context is migrating", NotExecuted},
	CodeAcquireTimeout:       {"acquire-timeout", "core: context activation timed out", OutcomeUnknown},
	CodeReplicaLagging:       {"replica-lagging", "replication: replica lagging behind requested sequence", NotExecuted},
	CodeStoreNotFound:        {"store-not-found", "cloudstore: key not found", ExecutedFailed},
	CodeStoreVersionMismatch: {"store-version-mismatch", "cloudstore: version mismatch", ExecutedFailed},
	CodeStoreUnavailable:     {"store-unavailable", "cloudstore: unavailable", OutcomeUnknown},
	CodeStoreFenced:          {"store-fenced", "cloudstore: fenced by a newer epoch", NotExecuted},
	CodeLinkPartitioned:      {"link-partitioned", "transport: link partitioned", OutcomeUnknown},
	CodeLinkClosed:           {"link-closed", "transport: endpoint closed", OutcomeUnknown},
	CodeLinkDropped:          {"link-dropped", "transport: call dropped (injected fault)", OutcomeUnknown},
	CodeLinkNoNode:           {"link-no-node", "transport: unknown node", NotExecuted},
}

// Known maps a byte this build has no row for onto CodeUnknown, so decoding
// a newer peer's code can neither panic nor read as some other failure.
func (c Code) Known() Code {
	if c >= NumCodes {
		return CodeUnknown
	}
	return c
}

// Error returns the code's message, Name its stable name, Class its retry
// class (zero for CodeOK).
func (c Code) Error() string     { return codeTable[c.Known()].msg }
func (c Code) Name() string      { return codeTable[c.Known()].name }
func (c Code) Class() RetryClass { return codeTable[c.Known()].class }

// CodeOf returns the code err carries: CodeOK for nil, CodeUnknown for an
// error with no code in its chain. CodeOf(err).Class() is a caller's retry
// answer.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	c := CodeUnknown
	errors.As(err, &c)
	return c
}

// Coded is an error as it crossed a process boundary: the sender's message
// and the code it carried.
type Coded struct {
	Code Code
	Msg  string
}

func (e *Coded) Error() string { return e.Msg }
func (e *Coded) Unwrap() error { return e.Code }

// Err rebuilds the error a response's (code, message) pair carries; nil for
// CodeOK.
func Err(c Code, msg string) error {
	if c == CodeOK {
		return nil
	}
	return &Coded{Code: c.Known(), Msg: msg}
}
