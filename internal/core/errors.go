// Package core implements the AEON runtime protocol of § 4: events are
// sequenced at the dominator of their target context, activate contexts
// top-down along ownership paths with fair FIFO read/write activation
// queues, execute method calls across contexts (synchronous, asynchronous,
// and crabbed tail calls), and release everything in reverse order at event
// termination — yielding strict serializability with deadlock and
// starvation freedom while maximizing parallelism.
package core

import (
	"errors"

	"aeon/internal/schema"
)

// The sentinels that name a schema.Code cross the wire as that code; the rest
// are a handler's programming errors and read remotely as schema.CodeApp.
var (
	// ErrClosed is returned when submitting to a closed runtime.
	ErrClosed error = schema.CodeClosed
	// ErrUnknownContext is returned when a context ID is not registered.
	ErrUnknownContext error = schema.CodeUnknownContext
	// ErrUnknownMethod is returned when a method is not declared on the
	// target's contextclass.
	ErrUnknownMethod error = schema.CodeUnknownMethod
	// ErrNotOwned is returned when a method call targets a context that is
	// not directly owned by the caller (§ 3: "access to a context is only
	// granted to the contexts that directly own it").
	ErrNotOwned = errors.New("core: callee not directly owned by caller")
	// ErrAccessDenied is returned when a call violates the method's
	// declared MayAccess set.
	ErrAccessDenied = errors.New("core: access not declared in schema")
	// ErrReadOnlyEvent is returned when a readonly event tries to invoke a
	// mutating method.
	ErrReadOnlyEvent = errors.New("core: readonly event invoking mutating method")
	// ErrCrabbed is returned when an event calls through a context it has
	// already released with Crab.
	ErrCrabbed = errors.New("core: context already crab-released by this event")
	// ErrOwnerNotHeld is returned when creating a context under owners the
	// event does not currently hold.
	ErrOwnerNotHeld = errors.New("core: owner context not held by event")
	// ErrAcquireTimeout is returned when lock acquisition exceeds the
	// configured timeout (used as a deadlock watchdog in tests; the
	// protocol itself is deadlock-free for valid ownership networks).
	ErrAcquireTimeout error = schema.CodeAcquireTimeout
	// ErrMigrating is returned when an operation races an in-progress
	// migration in a way the runtime cannot serve.
	ErrMigrating error = schema.CodeMigrating
	// ErrBackpressure is returned when an asynchronous submission finds the
	// target server's executor queue full. Callers should retry later or
	// shed load; synchronous Submit is unaffected (it runs on the caller's
	// goroutine).
	ErrBackpressure error = schema.CodeBackpressure
	// ErrNotLocal is returned in multi-process deployments when a request
	// needs a server (or store) this process does not embody: an event
	// sequenced elsewhere with no forwarder installed (Runtime.SetRemote), a
	// transfer, migration or store frame addressed to the wrong node.
	ErrNotLocal error = schema.CodeNotHosted
)
