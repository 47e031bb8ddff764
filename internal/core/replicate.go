package core

import (
	"fmt"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// Replicator sequences structural ownership-network mutations and
// migration commits through a fleet-wide log so every node of a
// multi-process deployment applies them in the same order (and therefore
// assigns the same context IDs and places each group alike). The runtime
// calls it on its mutation entry points when one is installed
// (SetReplicator); the replication plane calls back into the Apply* helpers
// below, which perform the local side effects without re-entering the
// replicator. Event submission never touches the replicator — the hot path
// stays log- and mesh-free.
type Replicator interface {
	// CreateContext appends a context-creation mutation and returns the ID
	// the log sequence assigned once the local replica has applied it.
	CreateContext(class string, srv cluster.ServerID, owners []ownership.ID) (ownership.ID, error)
	// AddEdge appends a direct-ownership edge mutation.
	AddEdge(parent, child ownership.ID) error
	// DestroyContext appends a detach-and-remove mutation.
	DestroyContext(id ownership.ID) error
	// Move appends a migration group's new placement; its apply is
	// RehostBatch.
	Move(members []ownership.ID, to cluster.ServerID) error
	// CatchUp applies every log record the local replica has not seen. The
	// runtime calls it before failing an event with ErrUnknownContext: the
	// target may have been created on another node an instant ago.
	CatchUp() error
}

// SetReplicator installs the fleet-wide mutation log on the runtime's
// structural mutation paths (CreateContext/CreateContextOn, Call.NewContext,
// Call.AddOwner, DestroyContext, CommitMove). Call once during node startup
// before events are submitted, like SetRemote; nil restores process-local
// mutations.
func (r *Runtime) SetReplicator(rep Replicator) { r.repl = rep }

// AddOwnerEdge records a direct-ownership edge, through the replication log
// when one is installed.
func (r *Runtime) AddOwnerEdge(parent, child ownership.ID) error {
	if r.repl != nil {
		return r.repl.AddEdge(parent, child)
	}
	return r.graph.AddEdge(parent, child)
}

// moveSettle bounds how long CommitMove reads the log after an append
// that reported an error.
const moveSettle = 10 * time.Second

// CommitMove places a migration group on server `to`, through the
// replication log when one is installed: the move is a log record, so every
// node, a restarted one included, learns it by applying it. The caller holds
// every member via LockGroupForMigration until CommitMove returns. An append
// that reported an error may still have landed (its acknowledgment lost, or
// the read-back after it failed), and a source that resumed then would
// serve writes the record, applied later, discards; so CommitMove reads the
// log until it answers: nil when it places every member on `to`, the
// append's error when it does not. A log still unreadable after moveSettle
// leaves the outcome unknown, and the append's error is returned.
func (r *Runtime) CommitMove(ids []ownership.ID, to cluster.ServerID) error {
	if r.repl == nil {
		return r.RehostBatch(ids, to)
	}
	err := r.repl.Move(ids, to)
	if err == nil {
		return nil
	}
	deadline := time.Now().Add(moveSettle)
	for backoff := time.Millisecond; r.repl.CatchUp() != nil; backoff = min(2*backoff, 100*time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("commit move, log unreadable: %w", err)
		}
		time.Sleep(backoff)
	}
	for _, id := range ids {
		if srv, ok := r.dir.Locate(id); !ok || srv != to {
			return fmt.Errorf("commit move: %w", err)
		}
	}
	return nil
}

// ApplyCreateContext performs the local side effects of a context creation:
// the graph mutation (which assigns the ID), registry materialization,
// directory placement, and hosted accounting. In replicated deployments it
// runs on every node, in log-sequence order, which is what makes the
// assigned IDs agree across the fleet; single-process deployments reach it
// directly from CreateContextOn. It never consults the replicator.
func (r *Runtime) ApplyCreateContext(class string, srv cluster.ServerID, owners ...ownership.ID) (ownership.ID, error) {
	cls := r.schema.Class(class)
	if cls == nil {
		return ownership.None, fmt.Errorf("class %q: %w", class, schema.ErrUnknownClass)
	}
	server, ok := r.cluster.Server(srv)
	if !ok {
		return ownership.None, fmt.Errorf("create %q: %w", class, cluster.ErrNoSuchServer)
	}
	id, err := r.graph.AddContext(class, owners...)
	if err != nil {
		return ownership.None, fmt.Errorf("create %q: %w", class, err)
	}
	c := &Context{id: id, class: cls, state: cls.NewState()}
	r.reg.put(id, c)
	r.dir.Place(id, srv)
	server.AddHosted(1)
	return id, nil
}

// ApplyDestroyContext performs the local side effects of destroying a leaf
// context: detach from the graph, directory and hosted-count cleanup,
// registry removal. Replication applies call it on every node; it never
// consults the replicator.
func (r *Runtime) ApplyDestroyContext(id ownership.ID) error {
	if err := r.graph.DetachContext(id); err != nil {
		return err
	}
	r.forgetContext(id)
	return nil
}

// forgetContext drops a removed context's placement, hosted accounting, and
// registry entry.
func (r *Runtime) forgetContext(id ownership.ID) {
	if srv, ok := r.dir.Locate(id); ok {
		if server, sok := r.cluster.Server(srv); sok {
			server.AddHosted(-1)
		}
	}
	r.dir.Forget(id)
	r.reg.delete(id)
}
