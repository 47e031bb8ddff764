package cloudstore

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Partitioned is a sharded cloud-store client: it routes every operation to
// the partition owning the key, so the eManager, the replication log, and
// the migration engine shard transparently.
//
// Routing hashes the key's *prefix group* — the key up to its last '/' (the
// whole key when it has none) — so each key family lands wholly on one
// partition: all `map/<id>` entries share one shard, every `replog/rec/<seq>`
// record shares one shard (the log's CAS commit point stays per-key on one
// store), and each context tree's `snapshot/<root>/<seq>` history co-locates.
// Cross-partition batches are therefore rare, but still correct (see Do for
// the rollback discipline).
type Partitioned struct {
	Typed

	parts []Doer
}

var _ API = (*Partitioned)(nil)

// NewPartitioned returns a client routing over the given partitions in
// order. Partition count is a deployment-time constant: every client must be
// constructed with the same list or keys route inconsistently.
func NewPartitioned(parts ...Doer) *Partitioned {
	if len(parts) == 0 {
		panic("cloudstore: NewPartitioned needs at least one partition")
	}
	p := &Partitioned{parts: parts}
	p.Typed = NewTyped(p)
	return p
}

// Parts reports the partition count.
func (p *Partitioned) Parts() int { return len(p.parts) }

// Partition returns the client serving partition i (the ops plane uses it
// to reach each partition's Replicated view).
func (p *Partitioned) Partition(i int) Doer { return p.parts[i] }

// PartitionOf reports which partition owns key.
func (p *Partitioned) PartitionOf(key string) int {
	return partitionOf(key, len(p.parts))
}

func partitionOf(key string, n int) int {
	if n == 1 {
		return 0
	}
	group := key
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		group = key[:i]
	}
	h := fnv.New32a()
	h.Write([]byte(group))
	return int(h.Sum32() % uint32(n))
}

// Do routes op to the partition owning its key. Batches are split into one
// sub-batch per owning partition and run in partition order: atomicity holds
// per partition, and versions are per-partition sequences, so the returned
// version is the highest assigned and only meaningful for single-partition
// batches (which prefix-group routing makes the common case). OpList fans
// out to every partition and merges the sorted results.
//
// If a later sub-batch of an OpCreateBatch collides (some key exists), the
// already-created sub-batches are rolled back best-effort before returning
// ErrVersionMismatch, preserving the read-recompute-retry discipline: a
// retrying caller re-reads and recreates the full generation. The rollback
// deletes by key, not by version, so it races concurrent writers: a Put/CAS
// that overwrote one of our just-created keys before the rollback runs has
// its committed value deleted along with ours. Callers that create keys
// other writers may immediately overwrite must not rely on cross-partition
// CreateBatch atomicity (prefix-group routing keeps the store's own callers
// on single-partition batches, where the store rolls back atomically under
// its lock instead).
func (p *Partitioned) Do(op Op) (Result, error) {
	switch op.Kind {
	case OpGet, OpPut, OpCAS, OpDelete:
		return p.parts[p.PartitionOf(op.Key)].Do(op)
	case OpList:
		var res Result
		for _, part := range p.parts {
			r, err := part.Do(op)
			if err != nil {
				return Result{}, err
			}
			res.Keys = append(res.Keys, r.Keys...)
		}
		sort.Strings(res.Keys)
		return res, nil
	case OpPutBatch, OpCreateBatch, OpDeleteBatch:
		var res Result
		subs := p.split(op)
		for i, sub := range subs {
			if len(sub.Entries)+len(sub.Keys) == 0 {
				continue
			}
			r, err := p.parts[i].Do(sub)
			if err != nil {
				if op.Kind == OpCreateBatch {
					// Roll back the sub-batches already created so a retry
					// starts from a clean slate. Best-effort: a partition
					// that died mid-rollback leaves orphans for the caller's
					// retry to collide on.
					for j, done := range subs[:i] {
						if len(done.Entries) > 0 {
							_, _ = p.parts[j].Do(Op{Kind: OpDeleteBatch, Keys: sortedKeys(done.Entries)})
						}
					}
				}
				return Result{}, err
			}
			if r.Version > res.Version {
				res.Version = r.Version
			}
		}
		return res, nil
	}
	return Result{}, fmt.Errorf("cloudstore: %v is not a client operation", op.Kind)
}

// split divides a batch op into one sub-op per partition, indexed by
// partition; a partition owning none of the batch gets an empty sub-op.
func (p *Partitioned) split(op Op) []Op {
	subs := make([]Op, len(p.parts))
	for i := range subs {
		subs[i] = op
		subs[i].Entries, subs[i].Keys = nil, nil
	}
	for k, v := range op.Entries {
		sub := &subs[p.PartitionOf(k)]
		if sub.Entries == nil {
			sub.Entries = make(map[string][]byte)
		}
		sub.Entries[k] = v
	}
	for _, k := range op.Keys {
		sub := &subs[p.PartitionOf(k)]
		sub.Keys = append(sub.Keys, k)
	}
	return subs
}
