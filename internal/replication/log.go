// Package replication makes the ownership graph, the placement and the
// cluster map a replicated state machine: every structural mutation —
// context creation and destruction, ownership-edge changes, a group's move,
// server membership — is captured as a schema-registered wire record,
// appended to an ordered, durable log in the cloud store, and applied in
// sequence order by every node's local replica. Log order, not
// process-local call order, assigns context IDs and places moved groups, so
// every node, a restarted one included, agrees on both.
//
// Log layout (cloud-store keys):
//
//	replog/rec/<seq>  — one Record per sequence number, written exactly
//	                    once with CAS(create): the record key is the
//	                    linearization point, so two racing appenders can
//	                    never both claim a sequence and no sequence can be
//	                    skipped (a reader that misses rec/N can never
//	                    observe rec/N+1 as committed work by this writer).
//	replog/head       — CAS-advanced, forward-only high-water mark of the
//	                    published sequence. It carries no correctness:
//	                    appenders and tailers always probe rec keys (which
//	                    is why a crash between the record write and the
//	                    head advance costs a probe, never a hole). It
//	                    exists as the log's durable tail marker —
//	                    observability for operators, and the anchor a
//	                    future log-compaction pass needs to know how far
//	                    the fleet has published.
//
// Append protocol: catch the local replica up to the durable tail, guess
// seq = applied+1, CAS-create the record there; a version-mismatch means
// another writer claimed the slot — re-read (apply the interloper), re-base,
// retry with backoff (cloudstore.Retry). Batching amortizes contention: all
// mutations queued while an append is in flight ride the next record as one
// CAS round.
//
// Applies are deterministic (every replica executes the same mutations in
// the same order against the same starting state) and idempotent at the
// record level (a replica tracks its applied sequence and never re-executes
// a record, so duplicated notify frames or concurrent catch-up calls are
// harmless).
//
// Virtual-join contexts are deliberately NOT logged: they are sequencing
// artifacts minted lazily on the read path, and logging them would put a
// store round trip on event admission. Instead they allocate from the
// reserved ownership.VirtualIDBase band, so each process can mint its own
// in local query order without ever colliding with a replicated ID.
package replication

import (
	"fmt"
	"strconv"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Op identifies one structural mutation kind.
type Op uint8

// The replicated mutation set: everything that changes the shape of the
// ownership network or the cluster map.
const (
	// OpNewContext creates a context (class, owners, placement). The apply
	// assigns its ID from the replica's allocator — identical on every node
	// because applies run in log order.
	OpNewContext Op = iota + 1
	// OpAddEdge adds a direct-ownership edge.
	OpAddEdge
	// OpRemoveEdge removes a direct-ownership edge.
	OpRemoveEdge
	// OpDetach removes every edge touching Target and deletes it (the
	// runtime's DestroyContext).
	OpDetach
	// OpRemoveContext deletes an edgeless context.
	OpRemoveContext
	// OpAddServer provisions a server with Profile ("scale out").
	OpAddServer
	// OpRemoveServer releases Server ("scale in"). Applied force-removed:
	// the drain was validated by the capturing node.
	OpRemoveServer
	// OpMove places a migration group's Members on Server: the commit
	// point of a migration, appended once the destination holds the state.
	OpMove
)

// String renders the op for logs and errors.
func (o Op) String() string {
	switch o {
	case OpNewContext:
		return "new-context"
	case OpAddEdge:
		return "add-edge"
	case OpRemoveEdge:
		return "remove-edge"
	case OpDetach:
		return "detach"
	case OpRemoveContext:
		return "remove-context"
	case OpAddServer:
		return "add-server"
	case OpRemoveServer:
		return "remove-server"
	case OpMove:
		return "move"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Mutation is one captured structural mutation. Only the fields relevant to
// Op are set.
type Mutation struct {
	Op Op
	// Class and Owners describe a new context; Server is its placement (or
	// the subject of server-membership ops).
	Class  string
	Owners []ownership.ID
	Server cluster.ServerID
	// Parent and Child name an edge.
	Parent, Child ownership.ID
	// Target names the context of detach/remove ops.
	Target ownership.ID
	// Members names the contexts an OpMove places on Server.
	Members []ownership.ID
	// Profile describes the server added by OpAddServer.
	Profile cluster.Profile
}

// Record is one durable log entry: a batch of mutations appended in one CAS
// round by one node.
type Record struct {
	Seq    uint64
	Origin transport.NodeID
	Muts   []Mutation
}

func init() {
	// Log records travel through the shared wire registry like every other
	// cross-process payload.
	schema.RegisterWireTypes(Record{}, Mutation{}, cluster.Profile{})
}

const (
	headKey   = "replog/head"
	recPrefix = "replog/rec/"
)

// recKey renders the storage key of the record at seq (zero-padded so List
// returns records in sequence order).
func recKey(seq uint64) string { return fmt.Sprintf("%s%020d", recPrefix, seq) }

// encodeRecord renders a record for storage.
func encodeRecord(rec Record) ([]byte, error) {
	b, err := schema.EncodeWire(rec)
	if err != nil {
		return nil, fmt.Errorf("replication: encode record %d: %w", rec.Seq, err)
	}
	return b, nil
}

// decodeRecord parses a stored record.
func decodeRecord(b []byte) (Record, error) {
	v, err := schema.DecodeWire(b)
	if err != nil {
		return Record{}, fmt.Errorf("replication: decode record: %w", err)
	}
	rec, ok := v.(Record)
	if !ok {
		return Record{}, fmt.Errorf("replication: record has wire type %T", v)
	}
	return rec, nil
}

// readHead returns the head hint (0 when the log is empty or the hint has
// never been written).
func readHead(store cloudstore.API) uint64 {
	raw, _, err := store.Get(headKey)
	if err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// advanceHead moves the published high-water mark forward to at least seq.
// Forward-only and best-effort: the mark carries no correctness (readers
// probe record keys), so after a few contended rounds — or on an
// unavailable store — it simply gives up.
func advanceHead(store cloudstore.API, seq uint64) {
	_ = cloudstore.Retry(cloudstore.RetryPolicy{Attempts: 4}, func() error {
		raw, ver, err := store.Get(headKey)
		if err == nil {
			cur, perr := strconv.ParseUint(string(raw), 10, 64)
			if perr == nil && cur >= seq {
				return nil // someone already published past us
			}
		} else {
			ver = 0 // create
		}
		_, err = store.CAS(headKey, ver, []byte(strconv.FormatUint(seq, 10)))
		return err
	})
}
