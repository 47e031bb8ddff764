package emanager

import (
	"fmt"
	"sort"
	"strings"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/migration"
	"aeon/internal/ownership"
)

// Server failure handling. The paper's § 5.3 defers the details of
// individual server failures to the project webpage; the behaviour
// implemented here follows its stated design: context state is
// checkpointed to cloud storage via the snapshot API, and when a server is
// lost, the eManager re-creates the lost contexts on surviving servers from
// their most recent checkpoints and republishes the mapping. Events
// submitted to a recovering context simply queue on its activation lock and
// execute once recovery completes.

// CheckpointServer snapshots every movable context hosted on the given
// server (a periodic call implements the paper's checkpoint-based fault
// tolerance). The sweep partitions the server's contexts into placement
// groups (like DrainAndRemove) and walks each group's subtree exactly once
// under one shared activation, emitting one per-context snapshot entry per
// member — each state is captured and stored once (a subtree snapshot per
// hosted context would store every descendant's state twice), and recovery
// keeps reading per-context keys.
//
// Publication is a CAS loop, not a blind write: the expensive capture walk
// runs once, then List → assign fresh sequences above the observed floors →
// CreateBatch (atomic create-only). A concurrent sweeper that published the
// same sequence first makes the CreateBatch fail with ErrVersionMismatch and
// the loop re-reads the floors and re-keys — so two sweeps interleave their
// histories instead of silently overwriting each other's entries. Pruning of
// the superseded sequences happens only after the fresh batch landed: a
// crash between the two writes leaves extra history, never a missing
// checkpoint. It returns the number of contexts captured.
func (m *Manager) CheckpointServer(srv cluster.ServerID) (int, error) {
	hosted := m.rt.Directory().HostedOn(srv)
	if len(hosted) == 0 {
		return 0, nil
	}
	view := m.rt.Graph().Snapshot()
	pending := make(map[ownership.ID]bool, len(hosted))
	for _, id := range hosted {
		pending[id] = true
	}
	roots, _ := drainGroups(view, hosted)
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })

	count := 0
	captured := make(map[uint64][]byte)
	for _, root := range roots {
		err := m.rt.WithSubtreeShared(root, func(ids []ownership.ID) error {
			for _, id := range ids {
				// Capture each hosted, movable member once, even when it is
				// reachable from two group roots (multi-owned contexts).
				if !pending[id] || !m.classAllowedIn(view, id) {
					continue
				}
				pending[id] = false
				b, ok := m.encodeState(id)
				if !ok {
					continue
				}
				encoded, err := encodePayload(snapshotPayload{
					Root:   uint64(id),
					States: map[uint64][]byte{uint64(id): b},
				})
				if err != nil {
					return err
				}
				captured[uint64(id)] = encoded
				count++
			}
			return nil
		})
		if err != nil {
			return count, fmt.Errorf("checkpoint %v: %w", root, err)
		}
	}
	if len(captured) == 0 {
		return 0, nil
	}

	var prune []string
	err := cloudstore.Retry(cloudstore.DefaultRetry(), func() error {
		// Re-read the sequence floors each attempt: a competing sweep may
		// have advanced them since the last try (sequences must stay
		// monotonic across processes; see nextSnapshotSeq).
		keys, err := m.store.List("snapshot/")
		if err != nil {
			return err
		}
		maxSeq := make(map[uint64]uint64)
		oldKeys := make(map[uint64][]string)
		for _, k := range keys {
			var root, seq uint64
			if _, err := fmt.Sscanf(k, "snapshot/%d/%d", &root, &seq); err == nil {
				oldKeys[root] = append(oldKeys[root], k)
				if seq > maxSeq[root] {
					maxSeq[root] = seq
				}
			}
		}
		entries := make(map[string][]byte, len(captured))
		prune = prune[:0]
		for id, encoded := range captured {
			entries[snapshotKey(ownership.ID(id), nextSnapshotSeq(maxSeq[id]))] = encoded
			prune = append(prune, oldKeys[id]...)
		}
		_, err = m.store.CreateBatch(entries)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("checkpoint %v: %w", srv, err)
	}
	if err := m.store.DeleteBatch(prune); err != nil {
		return count, fmt.Errorf("checkpoint %v prune: %w", srv, err)
	}
	return count, nil
}

// LatestSnapshot finds the key of the most recent snapshot of a context in
// the store (keys are "snapshot/<ctx>/<seq>" with monotonically increasing
// sequence numbers); ok is false when the context has none.
func (m *Manager) LatestSnapshot(id ownership.ID) (key string, ok bool, err error) {
	prefix := fmt.Sprintf("snapshot/%d/", uint64(id))
	keys, err := m.store.List(prefix)
	if err != nil {
		return "", false, err
	}
	if len(keys) == 0 {
		return "", false, nil
	}
	// Sequence numbers sort numerically, not lexically.
	sort.Slice(keys, func(i, j int) bool {
		return snapshotSeqOf(keys[i]) < snapshotSeqOf(keys[j])
	})
	return keys[len(keys)-1], true, nil
}

func snapshotSeqOf(key string) uint64 {
	idx := strings.LastIndexByte(key, '/')
	if idx < 0 {
		return 0
	}
	var seq uint64
	_, _ = fmt.Sscanf(key[idx+1:], "%d", &seq)
	return seq
}

// FailureReport summarizes a server-loss recovery.
type FailureReport struct {
	// Lost lists the contexts that were hosted on the failed server.
	Lost []ownership.ID
	// Restored lists contexts whose state was recovered from checkpoints.
	Restored []ownership.ID
	// Reset lists contexts that had no checkpoint and restarted from
	// factory state.
	Reset []ownership.ID
}

// RecoverServerFailure handles the loss of a server: every context it
// hosted is re-homed onto surviving servers, state is restored from the
// most recent checkpoint where one exists (factory state otherwise), and
// the mapping is republished. The failed server is removed from the
// cluster.
func (m *Manager) RecoverServerFailure(failed cluster.ServerID) (*FailureReport, error) {
	// Checkpoint keys name log-assigned context IDs; replay them against
	// the replicated graph, not a possibly stale local rebuild.
	if err := m.syncReplica(); err != nil {
		return nil, fmt.Errorf("recover %v: sync replica: %w", failed, err)
	}
	dir := m.rt.Directory()
	lost := dir.HostedOn(failed)
	report := &FailureReport{Lost: lost}

	for _, id := range lost {
		to, err := m.pickDestination(failed)
		if err != nil {
			return report, fmt.Errorf("re-home %v: %w", id, err)
		}
		// Take the context exclusively (queued events wait, they are not
		// lost), reset or restore its state, and re-home it.
		release, err := m.rt.LockForMigration(id)
		if err != nil {
			return report, fmt.Errorf("lock %v: %w", id, err)
		}
		c, err := m.rt.Context(id)
		if err != nil {
			release()
			return report, err
		}
		key, ok, err := m.LatestSnapshot(id)
		if err != nil {
			release()
			return report, err
		}
		if ok {
			states, err := m.LoadSnapshot(key)
			if err != nil {
				release()
				return report, fmt.Errorf("load checkpoint %q: %w", key, err)
			}
			if st, found := states[id]; found {
				c.SetState(st)
				report.Restored = append(report.Restored, id)
			} else {
				c.SetState(c.Class().NewState())
				report.Reset = append(report.Reset, id)
			}
		} else {
			c.SetState(c.Class().NewState())
			report.Reset = append(report.Reset, id)
		}
		if err := m.rt.Rehost(id, to); err != nil {
			release()
			return report, err
		}
		if _, err := m.store.Put(migration.MapKey(id), migration.EncodeServerID(to)); err != nil {
			release()
			return report, err
		}
		release()
	}
	if err := m.removeServer(failed); err != nil {
		return report, fmt.Errorf("remove failed server: %w", err)
	}
	return report, nil
}
