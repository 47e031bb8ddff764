package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aeon/internal/cloudstore"
	"aeon/internal/ops"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// StoreIDBase is the mesh address band for dedicated store-server
// processes: store replica k attaches as StoreIDBase + k. Far above both
// node IDs (small integers) and the ingress client band, so a store server
// is never mistaken for an AEON server and can be killed — for chaos tests
// and real failover — without taking any application contexts with it.
const StoreIDBase transport.NodeID = 1 << 20

// StoreRF is the replication factor of the sharded store plane: each
// keyspace partition is served by StoreRF store replicas, partition p's
// replica r attaching at StoreIDBase + StoreRF*p + r + 1 (replica 0 is the
// boot primary). Three is the minimum that can both survive one replica
// loss and refuse split-brain acks under the majority-quorum discipline
// (cloudstore.Replicated acknowledges a write only when a majority of the
// set holds it, and a failover fence only takes effect on a majority).
const StoreRF = 3

// StoreServer is a dedicated store-replica process attachment: it serves
// the cloud-store wire protocol (schema.KindStore, via the same serveStore as
// store-serving nodes) from a pluggable backend, answers pings, and honors
// shutdown frames. It embodies no AEON servers — losing one loses a store
// replica and nothing else, which is exactly the blast radius the sharded
// store plane is designed around.
type StoreServer struct {
	id transport.NodeID
	be cloudstore.Backend
	ep transport.Endpoint

	storeOps atomic.Uint64
	pings    atomic.Uint64

	shutdownOnce sync.Once
	shutdownCh   chan struct{}
	closeOnce    sync.Once
}

// ServeStore attaches a store server at the given mesh address, serving
// backend. The caller owns the backend: Close detaches from the mesh but
// does not close it (a chaos kill must be able to drop the endpoint while
// the backend's state survives for inspection or restart).
func ServeStore(mesh transport.Mesh, id transport.NodeID, backend cloudstore.Backend) (*StoreServer, error) {
	if backend == nil {
		return nil, fmt.Errorf("store server %v: backend is required", id)
	}
	s := &StoreServer{id: id, be: backend, shutdownCh: make(chan struct{})}
	ep, err := mesh.Attach(id, s.handle)
	if err != nil {
		return nil, fmt.Errorf("store server %v: attach: %w", id, err)
	}
	s.ep = ep
	return s, nil
}

// ID returns the store server's mesh address.
func (s *StoreServer) ID() transport.NodeID { return s.id }

// Done is closed when a peer requests shutdown (schema.KindShutdown).
func (s *StoreServer) Done() <-chan struct{} { return s.shutdownCh }

// Close detaches the server from the mesh. The backend stays open.
func (s *StoreServer) Close() error {
	var err error
	s.closeOnce.Do(func() { err = s.ep.Close() })
	return err
}

var errStoreServerDown = errors.New("store server shut down")

// RegisterOps exposes the store server's request counters and liveness on an
// ops registry, so a dedicated store-replica process can serve the same
// admin plane (/healthz, /metrics, /events) as an AEON node.
func (s *StoreServer) RegisterOps(reg *ops.Registry) {
	reg.Counter("aeon_store_server_ops_total",
		"Cloud-store operations served by this store replica.", nil, s.storeOps.Load)
	reg.Counter("aeon_store_server_pings_total",
		"Ping frames answered by this store replica.", nil, s.pings.Load)
	reg.Readiness("store-server", func() error {
		select {
		case <-s.shutdownCh:
			return errStoreServerDown
		default:
			return nil
		}
	})
}

func (s *StoreServer) handle(_ context.Context, _ transport.NodeID, req transport.Message) (transport.Message, error) {
	switch req.Kind {
	case schema.KindPing:
		s.pings.Add(1)
		return ack(schema.KindPing, schema.SubmitResp{Host: int64(s.id)}, nil)
	case schema.KindStore:
		s.storeOps.Add(1)
		return serveStore(s.be.Do, req.Payload)
	case schema.KindShutdown:
		s.shutdownOnce.Do(func() { close(s.shutdownCh) })
		return transport.Message{Kind: schema.KindShutdown}, nil
	default:
		return transport.Message{}, fmt.Errorf("store server %v: unknown frame kind %q", s.id, req.Kind)
	}
}
