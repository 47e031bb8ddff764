// Package cloudstore provides the configurable cloud storage system the
// paper's eManager depends on (§ 5): the context mapping and ownership
// network live here, migration steps are journaled here for eManager
// fail-over, and the snapshot API (§ 5.3) writes checkpoints here (the
// paper names ZooKeeper and Amazon S3 for these roles).
//
// The store is a versioned key-value store with compare-and-swap, per-
// operation simulated latency, and injectable unavailability so tests can
// exercise eManager crash/recovery paths.
//
// There is one definition of "a store operation": the Op value (kind, keys,
// values, expected version, optional partition fence) and one way to run
// it, Doer.Do(Op) (Result, error). Store executes ops (DiskStore journals
// them), Partitioned routes them by key, Replicated stamps the view's fence
// on them and gates write acks on a majority, and node.RemoteStore carries
// them over the mesh — each implements Do once. The typed API methods
// (Get, Put, CAS, …) are written once too, in Typed, which every Doer
// embeds pointed at itself.
package cloudstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/schema"
)

var (
	// ErrNotFound is returned when a key does not exist.
	ErrNotFound error = schema.CodeStoreNotFound
	// ErrVersionMismatch is returned by CAS when the expected version is
	// stale.
	ErrVersionMismatch error = schema.CodeStoreVersionMismatch
	// ErrUnavailable is returned while the store is failed.
	ErrUnavailable error = schema.CodeStoreUnavailable
	// ErrFenced is returned to an operation whose Fence epoch is older than
	// the partition's accepted epoch: the caller is acting for a deposed
	// primary and must refresh its view of the replica set.
	ErrFenced error = schema.CodeStoreFenced
)

// API is the typed surface cloud-store clients depend on: the eManager, the
// migration engine and the replication log journal through it no matter
// which Doer — a local Store, a sharded replicated plane, a mesh client in
// another process — is behind it. Typed is its one implementation.
type API interface {
	// Get returns the value and version stored at key.
	Get(key string) ([]byte, uint64, error)
	// Put unconditionally stores value at key and returns the new version.
	Put(key string, value []byte) (uint64, error)
	// PutBatch stores every entry in one charged round trip.
	PutBatch(entries map[string][]byte) (uint64, error)
	// CreateBatch atomically creates every entry in one charged round trip,
	// failing with ErrVersionMismatch — and writing nothing — if any key
	// already exists. It is the batch analogue of CAS(key, 0, value).
	CreateBatch(entries map[string][]byte) (uint64, error)
	// CAS stores value only if the current version equals expect (0 means
	// "key must not exist").
	CAS(key string, expect uint64, value []byte) (uint64, error)
	// Delete removes key; deleting a missing key is an error.
	Delete(key string) error
	// DeleteBatch removes every key in one charged round trip; missing
	// keys are ignored (batch pruning is best-effort by design).
	DeleteBatch(keys []string) error
	// List returns the keys with the given prefix in sorted order.
	List(prefix string) ([]string, error)
}

type entry struct {
	value   []byte
	version uint64
}

// Store is an in-memory versioned KV store.
type Store struct {
	Typed

	latency time.Duration

	mu      sync.Mutex
	data    map[string]entry
	next    uint64
	fences  map[int]uint64    // partition → accepted fence epoch (replica role)
	applied map[string]uint64 // per-key high-water of replicated applies

	// persist, when set, is called under mu after every successful mutation
	// with the journal records describing it (the disk backend's hook).
	persist func([]jrec) error

	down   atomic.Bool
	reads  atomic.Uint64
	writes atomic.Uint64
}

var _ Backend = (*Store)(nil)

// Option configures a Store.
type Option func(*Store)

// WithLatency charges the given latency on every operation, simulating a
// remote storage service.
func WithLatency(d time.Duration) Option {
	return func(s *Store) { s.latency = d }
}

// New returns an empty store.
func New(opts ...Option) *Store {
	s := &Store{
		data:    make(map[string]entry),
		next:    1,
		fences:  make(map[int]uint64),
		applied: make(map[string]uint64),
	}
	s.Typed = NewTyped(s)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

func (s *Store) charge() error {
	if s.down.Load() {
		return ErrUnavailable
	}
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	if s.down.Load() {
		return ErrUnavailable
	}
	return nil
}

// commitLocked journals the mutation records when a persist hook is attached.
// Callers hold mu, so journal order equals apply order.
func (s *Store) commitLocked(recs []jrec) error {
	if s.persist == nil || len(recs) == 0 {
		return nil
	}
	return s.persist(recs)
}

// fenceGateLocked is the partition fence check every fenced operation
// passes: an epoch below the accepted fence is refused with ErrFenced — that
// is what stops a deposed primary's writes from being acknowledged and its
// reads from being served. When advance is set (writes, Apply, Promote) a
// newer epoch raises the fence and the advance is returned as a journal
// record so it persists no matter how the replica learned it — a restarted
// replica must keep refusing deposed epochs. Reads pass advance=false: they
// never mutate the fence. Callers hold mu.
func (s *Store) fenceGateLocked(part int, epoch uint64, advance bool) ([]jrec, error) {
	cur := s.fences[part]
	if epoch < cur {
		return nil, fmt.Errorf("partition %d: epoch %d < fence %d: %w", part, epoch, cur, ErrFenced)
	}
	if advance && epoch > cur {
		s.fences[part] = epoch
		return []jrec{{Op: jFence, Key: strconv.Itoa(part), Ver: epoch}}, nil
	}
	return nil, nil
}

// --- operation cores -------------------------------------------------------
// Each core assumes mu is held and the serial service latency has been
// charged; it mutates state and returns the journal records describing the
// mutation. Do is their only caller.

func (s *Store) getLocked(key string) ([]byte, uint64, error) {
	e, ok := s.data[key]
	if !ok {
		return nil, 0, fmt.Errorf("%q: %w", key, ErrNotFound)
	}
	out := make([]byte, len(e.value))
	copy(out, e.value)
	return out, e.version, nil
}

func (s *Store) listLocked(prefix string) []string {
	var out []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (s *Store) setLocked(key string, value []byte) jrec {
	v := s.next
	s.next++
	stored := make([]byte, len(value))
	copy(stored, value)
	s.data[key] = entry{value: stored, version: v}
	return jrec{Op: jSet, Key: key, Val: stored, Ver: v}
}

func sortedKeys(entries map[string][]byte) []string {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// putBatchLocked assigns each key its own fresh version in sorted key order
// so batches are deterministic; returns the highest version assigned.
func (s *Store) putBatchLocked(entries map[string][]byte) (uint64, []jrec) {
	keys := sortedKeys(entries)
	recs := make([]jrec, 0, len(keys))
	var last uint64
	for _, k := range keys {
		rec := s.setLocked(k, entries[k])
		recs = append(recs, rec)
		last = rec.Ver
	}
	return last, recs
}

func (s *Store) createBatchLocked(entries map[string][]byte) (uint64, []jrec, error) {
	for _, k := range sortedKeys(entries) {
		if e, ok := s.data[k]; ok {
			return 0, nil, fmt.Errorf("%q exists at v%d: %w", k, e.version, ErrVersionMismatch)
		}
	}
	last, recs := s.putBatchLocked(entries)
	return last, recs, nil
}

func (s *Store) casLocked(key string, expect uint64, value []byte) (uint64, []jrec, error) {
	e, ok := s.data[key]
	switch {
	case expect == 0 && ok:
		return 0, nil, fmt.Errorf("%q exists at v%d: %w", key, e.version, ErrVersionMismatch)
	case expect != 0 && !ok:
		// Distinct from a live-version conflict: the key does not exist at
		// all. Still ErrVersionMismatch-wrapped so Retry treats both the
		// same way, but logs and failover diagnostics can tell a pruned key
		// from a racing writer.
		return 0, nil, fmt.Errorf("%q: missing, want v%d: %w", key, expect, ErrVersionMismatch)
	case expect != 0 && e.version != expect:
		return 0, nil, fmt.Errorf("%q: have v%d want v%d: %w", key, e.version, expect, ErrVersionMismatch)
	}
	rec := s.setLocked(key, value)
	return rec.Ver, []jrec{rec}, nil
}

// deleteLocked removes key, returning the tombstone version assigned to the
// removal. Deleting a missing key is an error so callers notice protocol
// bugs.
func (s *Store) deleteLocked(key string) (uint64, []jrec, error) {
	if _, ok := s.data[key]; !ok {
		return 0, nil, fmt.Errorf("%q: %w", key, ErrNotFound)
	}
	v := s.next
	s.next++
	delete(s.data, key)
	return v, []jrec{{Op: jDel, Key: key, Ver: v}}, nil
}

// deleteBatchLocked removes every key; missing keys are ignored (batch
// pruning is best-effort by design) but still consume one version each in
// sorted key order, so a replicating caller can reconstruct every key's
// tombstone version from the returned high-water mark.
func (s *Store) deleteBatchLocked(keys []string) (uint64, []jrec) {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	recs := make([]jrec, 0, len(sorted))
	var last uint64
	for _, k := range sorted {
		v := s.next
		s.next++
		delete(s.data, k)
		recs = append(recs, jrec{Op: jDel, Key: k, Ver: v})
		last = v
	}
	return last, recs
}

// applyLocked installs a replicated commit: each set and delete applies only
// if its primary-assigned version is newer than the key's applied high-water
// mark, and fresh versions allocate above everything applied.
func (s *Store) applyLocked(c Commit) []jrec {
	var recs []jrec
	fresh := func(key string, ver uint64) bool {
		if ver <= s.applied[key] {
			return false
		}
		s.applied[key] = ver
		if ver >= s.next {
			s.next = ver + 1
		}
		return true
	}
	for _, kv := range c.Sets {
		if !fresh(kv.Key, kv.Ver) {
			continue
		}
		stored := make([]byte, len(kv.Val))
		copy(stored, kv.Val)
		s.data[kv.Key] = entry{value: stored, version: kv.Ver}
		recs = append(recs, jrec{Op: jSet, Key: kv.Key, Val: stored, Ver: kv.Ver})
	}
	for _, kd := range c.Dels {
		if !fresh(kd.Key, kd.Ver) {
			continue
		}
		delete(s.data, kd.Key)
		recs = append(recs, jrec{Op: jDel, Key: kd.Key, Ver: kd.Ver})
	}
	return recs
}

// Do executes one operation. It is the store's only entry point: latency is
// charged, the fence gate runs, the operation core mutates state, and the
// fence and mutation records are journaled under a single hold of mu — there
// is no window where a newer fence can land between the check and the
// mutation, and journal order equals apply order.
func (s *Store) Do(op Op) (Result, error) {
	if !op.Kind.valid() {
		return Result{}, fmt.Errorf("cloudstore: unknown operation %v", op.Kind)
	}
	if op.Fence == nil && op.Kind.replica() {
		return Result{}, fmt.Errorf("cloudstore: %v without a fence", op.Kind)
	}
	if err := s.charge(); err != nil {
		return Result{}, err
	}
	// A batch is one RPC, not len(entries) operations.
	if op.Kind.reads() {
		s.reads.Add(1)
	} else {
		s.writes.Add(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	var recs []jrec
	if f := op.Fence; f != nil && op.Kind != OpFenceEpoch {
		frecs, err := s.fenceGateLocked(f.Part, f.Epoch, !op.Kind.reads())
		if err != nil {
			return Result{Version: s.fences[f.Part]}, err
		}
		recs = frecs
	}
	var (
		res   Result
		mrecs []jrec
		err   error
	)
	switch op.Kind {
	case OpGet:
		res.Value, res.Version, err = s.getLocked(op.Key)
	case OpList:
		res.Keys = s.listLocked(op.Key)
	case OpPut:
		rec := s.setLocked(op.Key, op.Value)
		res.Version, mrecs = rec.Ver, []jrec{rec}
	case OpPutBatch:
		res.Version, mrecs = s.putBatchLocked(op.Entries)
	case OpCreateBatch:
		res.Version, mrecs, err = s.createBatchLocked(op.Entries)
	case OpCAS:
		res.Version, mrecs, err = s.casLocked(op.Key, op.Expect, op.Value)
	case OpDelete:
		res.Version, mrecs, err = s.deleteLocked(op.Key)
	case OpDeleteBatch:
		res.Version, mrecs = s.deleteBatchLocked(op.Keys)
	case OpApply:
		mrecs = s.applyLocked(op.Commit)
	case OpPromote, OpFenceEpoch:
		res.Version = s.fences[op.Fence.Part]
	}
	// A fence advance stands even when the mutation it rode in on was
	// refused (a CAS conflict, say), so it is journaled either way.
	if cerr := s.commitLocked(append(recs, mrecs...)); cerr != nil {
		return Result{}, cerr
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// Close releases backend resources. The in-memory store holds none.
func (s *Store) Close() error { return nil }

// Fail makes the store return ErrUnavailable until Recover is called.
func (s *Store) Fail() { s.down.Store(true) }

// Recover restores availability after Fail.
func (s *Store) Recover() { s.down.Store(false) }

// Stats reports operation counts (for tests).
func (s *Store) Stats() (reads, writes uint64) {
	return s.reads.Load(), s.writes.Load()
}
