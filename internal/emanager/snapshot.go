package emanager

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"aeon/internal/cloudstore"
	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// Checkpointer lets application state customize what a snapshot stores
// (§ 5.3: "a programmer is able to override a method returning the state of
// a context. In case the overridden method returns null ... the runtime
// system will ignore that context during the checkpointing phase").
type Checkpointer interface {
	CheckpointState() any
}

type snapshotPayload struct {
	Root   uint64
	States map[uint64][]byte
}

// Snapshot sequence numbers must be monotonic per root *across processes*:
// in multi-process deployments every node checkpoints into one
// authoritative store, and failure recovery picks the highest sequence as
// the freshest checkpoint. A plain process-local counter would let the
// group's new host (after a migration) write seq 1 under the old host's
// seq 7 and have recovery restore stale state. So writers first read the
// store's current maximum for the root and continue above it; the
// process-local floor keeps concurrent local snapshots from colliding.
var (
	snapSeqMu    sync.Mutex
	snapSeqFloor uint64
)

// nextSnapshotSeq returns a sequence number above both the store's maximum
// for the root and everything issued by this process.
func nextSnapshotSeq(storeMax uint64) uint64 {
	snapSeqMu.Lock()
	defer snapSeqMu.Unlock()
	if storeMax > snapSeqFloor {
		snapSeqFloor = storeMax
	}
	snapSeqFloor++
	return snapSeqFloor
}

// storeMaxSnapshotSeq reads the highest sequence number the store holds for
// a root.
func (m *Manager) storeMaxSnapshotSeq(root ownership.ID) (uint64, error) {
	keys, err := m.store.List(fmt.Sprintf("snapshot/%d/", uint64(root)))
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, k := range keys {
		if s := snapshotSeqOf(k); s > max {
			max = s
		}
	}
	return max, nil
}

// snapshotKey renders the storage key of one checkpoint.
func snapshotKey(root ownership.ID, seq uint64) string {
	return fmt.Sprintf("snapshot/%d/%d", uint64(root), seq)
}

// encodeState captures one context's current state for a checkpoint
// payload. A Checkpointer override is honored; a nil or unencodable state
// reports ok=false and is skipped.
func (m *Manager) encodeState(id ownership.ID) (b []byte, ok bool) {
	c, err := m.rt.Context(id)
	if err != nil {
		return nil, false
	}
	st := c.State()
	if cp, isCP := st.(Checkpointer); isCP {
		st = cp.CheckpointState()
	}
	if st == nil {
		return nil, false
	}
	b, err = schema.EncodeWire(st)
	if err != nil {
		return nil, false // unregistered or unencodable state: skip
	}
	return b, true
}

// encodePayload gob-encodes one snapshot payload.
func encodePayload(p snapshotPayload) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Snapshot takes a consistent checkpoint of a context and all its
// descendants and writes it to the cloud store. It returns the storage key
// and the number of contexts captured.
func (m *Manager) Snapshot(root ownership.ID) (string, int, error) {
	max, err := m.storeMaxSnapshotSeq(root)
	if err != nil {
		return "", 0, err
	}
	payload := snapshotPayload{Root: uint64(root), States: make(map[uint64][]byte)}
	err = m.rt.WithSubtreeShared(root, func(ids []ownership.ID) error {
		for _, id := range ids {
			if b, ok := m.encodeState(id); ok {
				payload.States[uint64(id)] = b
			}
		}
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	encoded, err := encodePayload(payload)
	if err != nil {
		return "", 0, err
	}
	// CAS-create the sequence slot instead of a blind Put: two processes
	// checkpointing the same root concurrently can compute the same next
	// sequence, and overwriting would silently drop one checkpoint. On a
	// conflict the loser re-reads the store's maximum and takes the next
	// slot (shared retry/backoff helper, same loop the replication log
	// uses).
	var key string
	err = cloudstore.Retry(cloudstore.DefaultRetry(), func() error {
		key = snapshotKey(root, nextSnapshotSeq(max))
		_, casErr := m.store.CAS(key, 0, encoded)
		if errors.Is(casErr, cloudstore.ErrVersionMismatch) {
			if m2, merr := m.storeMaxSnapshotSeq(root); merr == nil && m2 > max {
				max = m2
			}
		}
		return casErr
	})
	if err != nil {
		return "", 0, fmt.Errorf("store snapshot: %w", err)
	}
	return key, len(payload.States), nil
}

// LoadSnapshot reads a checkpoint back from the store.
func (m *Manager) LoadSnapshot(key string) (map[ownership.ID]any, error) {
	raw, _, err := m.store.Get(key)
	if err != nil {
		return nil, err
	}
	var payload snapshotPayload
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&payload); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	out := make(map[ownership.ID]any, len(payload.States))
	for id, b := range payload.States {
		v, err := schema.DecodeWire(b)
		if err != nil {
			return nil, fmt.Errorf("decode state %d: %w", id, err)
		}
		out[ownership.ID(id)] = v
	}
	return out, nil
}

// Restore applies a loaded checkpoint to the live contexts, taking each
// context exclusively first.
func (m *Manager) Restore(states map[ownership.ID]any) error {
	for id, st := range states {
		release, err := m.rt.LockForMigration(id)
		if err != nil {
			return fmt.Errorf("restore %v: %w", id, err)
		}
		c, err := m.rt.Context(id)
		if err != nil {
			release()
			return err
		}
		c.SetState(st)
		release()
	}
	return nil
}
