// Package schema implements AEON's contextclass declarations and the static
// analysis of § 3 ("Type-based enforcement of DAG ownership").
//
// An AEON application declares a set of contextclasses, each with a state
// factory and a method table. Methods carry the paper's `ro` (readonly)
// modifier, the set of contextclasses they may access (the information the
// paper's compiler collects in one pass over ANF declarations), and the
// methods they may call. Freezing a schema runs the static checks:
//
//   - the class-level constraint graph C1 ≤ C0 (C0's methods may use C1) must
//     be acyclic, except for the reflexive case that permits inductive
//     structures such as linked lists and trees;
//   - readonly methods may only call readonly methods;
//   - every referenced class and method must exist.
//
// Go has no contextclass keyword, so the restriction that context-typed
// fields may appear only inside contextclass code is by convention: context
// references held by application state are ownership.IDs handed out by the
// runtime, and plain (non-context) classes are ordinary Go values inside a
// context's state.
package schema

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"aeon/internal/ownership"
)

var (
	// ErrFrozen is returned when mutating a frozen schema.
	ErrFrozen = errors.New("schema: frozen")
	// ErrDuplicate is returned when a class or method is declared twice.
	ErrDuplicate = errors.New("schema: duplicate declaration")
	// ErrUnknownClass is returned when a declaration references an
	// undeclared contextclass.
	ErrUnknownClass = errors.New("schema: unknown contextclass")
	// ErrUnknownMethod is returned when a declaration references an
	// undeclared method.
	ErrUnknownMethod = errors.New("schema: unknown method")
	// ErrOwnershipCycle is returned when the class constraint graph is
	// cyclic beyond the reflexive exception.
	ErrOwnershipCycle = errors.New("schema: contextclass ownership constraints are cyclic")
	// ErrReadOnlyViolation is returned when a readonly method declares a
	// call to a non-readonly method.
	ErrReadOnlyViolation = errors.New("schema: readonly method calls non-readonly method")
)

// Handler is the body of a contextclass method. It receives the invocation
// environment (the paper's implicit "this context" plus the event-scoped
// operations) and the call arguments, and returns its result as a Value.
type Handler func(call Call, args []any) (Value, error)

// AsyncResult joins an asynchronous intra-event method call.
type AsyncResult interface {
	// Wait blocks until the call completes and returns its result.
	Wait() (Value, error)
}

// Call is the environment a method body executes in. The core runtime
// provides the implementation; it is defined here so that application
// schemas do not depend on the runtime package.
//
// A Call is valid only while the handler it was passed to is running: the
// runtime recycles it when the handler returns. A handler must not retain
// its Call (in state, a closure, or a goroutine of its own) past its return;
// intra-event concurrency goes through Async/Crab, which the event joins.
type Call interface {
	// Self returns the context the method is executing on.
	Self() ownership.ID
	// Class returns the contextclass name of the executing context.
	Class() string
	// State returns the mutable state of the executing context. Readonly
	// methods must not modify it.
	State() any
	// EventID identifies the enclosing event (for logging and tracing).
	EventID() uint64
	// ReadOnly reports whether the enclosing event is readonly.
	ReadOnly() bool

	// Sync performs a synchronous method call on a directly-owned child
	// context, activating it for the enclosing event first.
	Sync(child ownership.ID, method string, args ...any) (Value, error)
	// Async performs an asynchronous method call on a directly-owned child
	// context. The enclosing event does not complete until the call does;
	// Wait is optional.
	Async(child ownership.ID, method string, args ...any) AsyncResult
	// Crab performs an asynchronous tail call on a directly-owned child and
	// releases the *current* context once the child is activated, letting
	// the next event enter it (the § 6.1.2 optimization: "once a payment
	// transaction finishes its execution in a Warehouse context, it calls a
	// method in a District context asynchronously, and releases the
	// Warehouse context"). Safe only when the event will never again touch
	// this context or anything reachable around the child; the runtime
	// rejects later calls through a crabbed context.
	Crab(child ownership.ID, method string, args ...any) error
	// Dispatch schedules a fresh event that runs after the enclosing event
	// completes (§ 3: "an event that is dispatched within another event ...
	// will execute after its creator event finishes").
	Dispatch(target ownership.ID, method string, args ...any)

	// NewContext creates a context of the given class owned by the given
	// owners (which must include contexts the event currently holds).
	NewContext(class string, owners ...ownership.ID) (ownership.ID, error)
	// AddOwner adds a direct-ownership edge parent→child at runtime.
	AddOwner(parent, child ownership.ID) error

	// Children lists the directly-owned children of the executing context,
	// optionally filtered by class (empty string = all).
	Children(class string) ([]ownership.ID, error)

	// Work consumes the given amount of simulated CPU on the hosting server
	// (the substrate's stand-in for real computation).
	Work(d time.Duration)
}

// Method describes one contextclass method.
type Method struct {
	// Name of the method within its class.
	Name string
	// ReadOnly marks the paper's `ro` modifier: the method must not modify
	// context state and may only call readonly methods; readonly events
	// lock contexts in share mode.
	ReadOnly bool
	// Accesses lists the contextclass names whose instances this method may
	// touch via Sync/Async/Crab. It feeds the static constraint graph.
	Accesses []string
	// Calls lists (class, method) pairs this method may invoke; used for
	// the readonly-calls-readonly check.
	Calls []MethodRef
	// Cost is the simulated CPU consumed per invocation before the handler
	// body runs (zero means the handler does its own Work calls, if any).
	Cost time.Duration
	// Handler is the method body.
	Handler Handler

	// access is the may-access set resolved by Freeze: the declaring class
	// (the reflexive exception) plus every class in Accesses.
	access []*Class
}

// MayAccessClass reports whether the method may reach instances of c, which
// the runtime enforces on every sub-call. Valid once the schema is frozen.
func (m *Method) MayAccessClass(c *Class) bool { return slices.Contains(m.access, c) }

// MethodRef names a method of a contextclass.
type MethodRef struct {
	Class  string
	Method string
}

// Class describes one contextclass.
type Class struct {
	name  string
	newFn func() any
	// methods is the method table in declaration order. Method scans it:
	// for a handful of methods that is cheaper than hashing the name.
	methods []*Method
	schema  *Schema
}

// Name returns the contextclass name.
func (c *Class) Name() string { return c.name }

// NewState instantiates the class's state object.
func (c *Class) NewState() any {
	if c.newFn == nil {
		return nil
	}
	return c.newFn()
}

// Method returns the named method, or nil.
func (c *Class) Method(name string) *Method {
	for _, m := range c.methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Methods returns the method names in sorted order.
func (c *Class) Methods() []string {
	out := make([]string, len(c.methods))
	for i, m := range c.methods {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// MethodOption configures a method declaration.
type MethodOption func(*Method)

// RO marks a method readonly (the paper's `ro` modifier).
func RO() MethodOption {
	return func(m *Method) { m.ReadOnly = true }
}

// MayAccess declares the contextclasses the method may reach.
func MayAccess(classes ...string) MethodOption {
	return func(m *Method) { m.Accesses = append(m.Accesses, classes...) }
}

// MayCall declares a method the declared method may invoke on a child
// context; it implies MayAccess(class).
func MayCall(class, method string) MethodOption {
	return func(m *Method) {
		m.Calls = append(m.Calls, MethodRef{Class: class, Method: method})
		m.Accesses = append(m.Accesses, class)
	}
}

// Cost declares the simulated CPU consumed per invocation.
func Cost(d time.Duration) MethodOption {
	return func(m *Method) { m.Cost = d }
}

// DeclareMethod adds a method to the class.
func (c *Class) DeclareMethod(name string, handler Handler, opts ...MethodOption) error {
	if c.schema.frozen {
		return ErrFrozen
	}
	if c.Method(name) != nil {
		return fmt.Errorf("method %s.%s: %w", c.name, name, ErrDuplicate)
	}
	m := &Method{Name: name, Handler: handler}
	for _, opt := range opts {
		opt(m)
	}
	c.methods = append(c.methods, m)
	return nil
}

// MustDeclareMethod is DeclareMethod that panics on error; intended for
// program initialization where a bad schema should abort startup.
func (c *Class) MustDeclareMethod(name string, handler Handler, opts ...MethodOption) {
	if err := c.DeclareMethod(name, handler, opts...); err != nil {
		panic(err)
	}
}

// VirtualContextClass returns a fresh class descriptor for the unnamed
// contexts the ownership graph inserts to restore the lattice property.
// Virtual contexts have no state and no methods; they exist only as
// sequencing points.
func VirtualContextClass() *Class {
	return &Class{name: ownership.VirtualClass}
}

// Schema is a set of contextclass declarations.
type Schema struct {
	classes map[string]*Class
	frozen  bool
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{classes: make(map[string]*Class)}
}

// DeclareClass adds a contextclass with the given state factory.
func (s *Schema) DeclareClass(name string, newState func() any) (*Class, error) {
	if s.frozen {
		return nil, ErrFrozen
	}
	if _, ok := s.classes[name]; ok {
		return nil, fmt.Errorf("class %s: %w", name, ErrDuplicate)
	}
	c := &Class{name: name, newFn: newState, schema: s}
	s.classes[name] = c
	return c, nil
}

// MustDeclareClass is DeclareClass that panics on error.
func (s *Schema) MustDeclareClass(name string, newState func() any) *Class {
	c, err := s.DeclareClass(name, newState)
	if err != nil {
		panic(err)
	}
	return c
}

// Class returns the named contextclass, or nil.
func (s *Schema) Class(name string) *Class {
	return s.classes[name]
}

// Classes returns the declared class names in sorted order.
func (s *Schema) Classes() []string {
	out := make([]string, 0, len(s.classes))
	for name := range s.classes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Frozen reports whether the schema has been validated and frozen.
func (s *Schema) Frozen() bool { return s.frozen }

// Freeze validates the schema and makes it immutable. It runs the static
// analysis of § 3: the class constraint graph must be acyclic (reflexive
// edges excepted), readonly methods must only call readonly methods, and all
// references must resolve.
func (s *Schema) Freeze() error {
	if s.frozen {
		return nil
	}
	if err := s.checkReferences(); err != nil {
		return err
	}
	if err := s.checkReadOnly(); err != nil {
		return err
	}
	if err := s.checkAcyclic(); err != nil {
		return err
	}
	for _, c := range s.classes {
		for _, m := range c.methods {
			m.access = []*Class{c}
			for _, a := range m.Accesses {
				m.access = append(m.access, s.classes[a])
			}
		}
	}
	s.frozen = true
	return nil
}

func (s *Schema) checkReferences() error {
	for _, c := range s.classes {
		for _, m := range c.methods {
			for _, a := range m.Accesses {
				if _, ok := s.classes[a]; !ok {
					return fmt.Errorf("%s.%s accesses %q: %w", c.name, m.Name, a, ErrUnknownClass)
				}
			}
			for _, call := range m.Calls {
				callee, ok := s.classes[call.Class]
				if !ok {
					return fmt.Errorf("%s.%s calls %s.%s: %w", c.name, m.Name, call.Class, call.Method, ErrUnknownClass)
				}
				if callee.Method(call.Method) == nil {
					return fmt.Errorf("%s.%s calls %s.%s: %w", c.name, m.Name, call.Class, call.Method, ErrUnknownMethod)
				}
			}
		}
	}
	return nil
}

func (s *Schema) checkReadOnly() error {
	for _, c := range s.classes {
		for _, m := range c.methods {
			if !m.ReadOnly {
				continue
			}
			for _, call := range m.Calls {
				callee := s.classes[call.Class].Method(call.Method)
				if !callee.ReadOnly {
					return fmt.Errorf("%s.%s → %s.%s: %w",
						c.name, m.Name, call.Class, call.Method, ErrReadOnlyViolation)
				}
			}
		}
	}
	return nil
}

// checkAcyclic builds the constraint graph (edge C0 → C1 whenever a method of
// C0 may access C1, meaning C1 ≤ C0 in the ownership order) and rejects any
// cycle other than a self-loop.
func (s *Schema) checkAcyclic() error {
	edges := make(map[string]map[string]bool, len(s.classes))
	for name, c := range s.classes {
		edges[name] = make(map[string]bool)
		for _, m := range c.methods {
			for _, a := range m.Accesses {
				if a == name {
					continue // reflexive exception for inductive structures
				}
				edges[name][a] = true
			}
		}
	}
	// Iterative DFS cycle detection with path reconstruction.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(edges))
	parent := make(map[string]string, len(edges))

	names := make([]string, 0, len(edges))
	for n := range edges {
		names = append(names, n)
	}
	sort.Strings(names)

	var visit func(string) []string
	visit = func(u string) []string {
		color[u] = gray
		targets := make([]string, 0, len(edges[u]))
		for v := range edges[u] {
			targets = append(targets, v)
		}
		sort.Strings(targets)
		for _, v := range targets {
			switch color[v] {
			case white:
				parent[v] = u
				if cyc := visit(v); cyc != nil {
					return cyc
				}
			case gray:
				// Reconstruct the cycle v → ... → u → v.
				cycle := []string{v}
				for cur := u; cur != v; cur = parent[cur] {
					cycle = append(cycle, cur)
				}
				cycle = append(cycle, v)
				// Reverse for readability.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return cycle
			}
		}
		color[u] = black
		return nil
	}
	for _, n := range names {
		if color[n] == white {
			if cycle := visit(n); cycle != nil {
				return fmt.Errorf("%w: %s", ErrOwnershipCycle, strings.Join(cycle, " → "))
			}
		}
	}
	return nil
}
