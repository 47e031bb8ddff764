package bench

// The `store` experiment measures what the sharded, replicated store plane
// buys: aggregate store write throughput at 1 vs 2 partitions (each
// partition a node.StoreRF-replica set of store servers with a bounded
// serial service rate — the ceiling partitioning removes), and the failover
// blackout window when a partition's primary is killed mid-traffic (time
// from the kill to the first write acknowledged through the promoted
// follower with a majority of the set holding it). Recorded as
// BENCH_7.json.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/node"
	"aeon/internal/transport"
)

// storeServiceTime is the simulated per-op service time charged under each
// store replica's lock: it models a store node with a bounded serial
// service rate (~1/d ops/s), so the single-partition throughput ceiling —
// and its removal by sharding — is observable on any host, including a
// 1-CPU CI container where lock-free scaling alone would be invisible.
const storeServiceTime = 200 * time.Microsecond

// StoreExp regenerates the store-plane experiment table.
func StoreExp(o Options) (*Table, error) {
	dur := o.duration()
	clients := 8
	if o.Quick {
		clients = 4
	}

	t := &Table{
		Title:   "Store plane: write throughput vs partition count, and failover blackout",
		Columns: []string{"partitions", "replicas", "store ops/s", "vs 1 part", "failover blackout"},
		Notes: []string{
			fmt.Sprintf("each replica models a store node with a %v serial service time (~%.0f ops/s ceiling per partition primary)", storeServiceTime, float64(time.Second)/float64(storeServiceTime)),
			fmt.Sprintf("every write = primary op + fenced commit applies; acks need a majority of the %d-replica set durable", node.StoreRF),
			fmt.Sprintf("%d client workers over prefix-group-sharded keys, %v per point, in-memory mesh", clients, dur),
			"blackout: kill a partition's primary store server mid-traffic; time until the first write acks through the CAS-fence-promoted follower",
			"expected shape: ops/s scales with partition count (the SPOF store was the ceiling); blackout is one failed call + one fence promotion",
		},
	}

	var base float64
	for _, parts := range []int{1, 2} {
		o.progressf("store: %d partition(s)\n", parts)
		ops, err := storePlaneThroughput(parts, clients, dur)
		if err != nil {
			return nil, fmt.Errorf("%d partitions: %w", parts, err)
		}
		scale := "1.00x"
		if parts == 1 {
			base = ops
		} else if base > 0 {
			scale = fmt.Sprintf("%.2fx", ops/base)
		}
		blackout := "-"
		if parts == 2 {
			o.progressf("store: failover blackout\n")
			w, err := storeFailoverBlackout(clients)
			if err != nil {
				return nil, fmt.Errorf("failover: %w", err)
			}
			blackout = fmtMS(w)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", parts), fmt.Sprintf("%d/part", node.StoreRF), fmtK(ops), scale, blackout,
		})
	}
	return t, nil
}

// storePlane builds a parts-partition store plane (node.StoreRF store
// servers per partition) on a fresh in-memory mesh and returns a client
// endpoint plus a constructor for per-worker partitioned clients.
type storePlane struct {
	mesh    transport.Mesh
	ep      transport.Endpoint
	servers []*node.StoreServer
	parts   int
}

func newStorePlane(parts int) (*storePlane, error) {
	mesh := transport.NewInMemMesh(transport.NewSim(transport.SimConfig{}))
	sp := &storePlane{mesh: mesh, parts: parts}
	for p := 0; p < parts; p++ {
		for r := 0; r < node.StoreRF; r++ {
			st := cloudstore.New(cloudstore.WithSerialLatency(storeServiceTime))
			srv, err := node.ServeStore(mesh, node.StoreIDBase+transport.NodeID(node.StoreRF*p+r+1), st)
			if err != nil {
				sp.Close()
				return nil, err
			}
			sp.servers = append(sp.servers, srv)
		}
	}
	ep, err := mesh.Attach(999, func(context.Context, transport.NodeID, transport.Message) (transport.Message, error) {
		return transport.Message{}, fmt.Errorf("bench client endpoint serves nothing")
	})
	if err != nil {
		sp.Close()
		return nil, err
	}
	sp.ep = ep
	return sp, nil
}

// client builds one worker's view of the plane: a Partitioned router over
// per-partition Replicated clients speaking RemoteStore to the servers.
func (sp *storePlane) client(base context.Context) *cloudstore.Partitioned {
	parts := make([]cloudstore.Doer, sp.parts)
	for p := range parts {
		reps := make([]cloudstore.Doer, node.StoreRF)
		for r := range reps {
			reps[r] = node.NewRemoteStore(sp.ep, node.StoreIDBase+transport.NodeID(node.StoreRF*p+r+1), 5*time.Second, base)
		}
		parts[p] = cloudstore.NewReplicated(p, reps...)
	}
	return cloudstore.NewPartitioned(parts...)
}

func (sp *storePlane) Close() {
	if sp.ep != nil {
		_ = sp.ep.Close()
	}
	for _, s := range sp.servers {
		_ = s.Close()
	}
}

// storePlaneThroughput measures aggregate acknowledged writes/s from
// `clients` workers hammering the plane across many prefix groups (so the
// keyspace spreads over all partitions).
func storePlaneThroughput(parts, clients int, dur time.Duration) (float64, error) {
	sp, err := newStorePlane(parts)
	if err != nil {
		return 0, err
	}
	defer sp.Close()

	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		stop atomic.Bool
		ops  atomic.Uint64
		wg   sync.WaitGroup
		errc = make(chan error, clients)
	)
	for c := 0; c < clients; c++ {
		store := sp.client(base)
		wg.Add(1)
		go func(c int, store *cloudstore.Partitioned) {
			defer wg.Done()
			val := []byte("bench-value")
			for i := 0; !stop.Load(); i++ {
				// Many groups → both partitions see traffic; the group
				// count (32) is far above the partition count so the hash
				// split stays near-even.
				key := fmt.Sprintf("g%02d/c%d", (c*7+i)%32, c)
				if _, err := store.Put(key, val); err != nil {
					errc <- err
					return
				}
				ops.Add(1)
			}
		}(c, store)
	}
	start := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return 0, err
	default:
	}
	return float64(ops.Load()) / elapsed.Seconds(), nil
}

// storeFailoverBlackout runs traffic against a 2-partition plane, kills the
// primary of the partition owning the probe key, and reports how long
// writes to that partition stayed unacknowledged: the gap between the kill
// and the first write acked through the promoted follower.
func storeFailoverBlackout(clients int) (time.Duration, error) {
	sp, err := newStorePlane(2)
	if err != nil {
		return 0, err
	}
	defer sp.Close()

	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := sp.client(base)
	probeKey := "g00/blackout"
	part := probe.PartitionOf(probeKey)

	// Background traffic on every worker, like the throughput run.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients-1; c++ {
		store := sp.client(base)
		wg.Add(1)
		go func(c int, store *cloudstore.Partitioned) {
			defer wg.Done()
			val := []byte("bench-value")
			for i := 0; !stop.Load(); i++ {
				// Background workers tolerate the blackout: their errors
				// are the failover in progress, not a bench failure.
				_, _ = store.Put(fmt.Sprintf("g%02d/c%d", (c*7+i)%32, c), val)
			}
		}(c, store)
	}
	defer func() { stop.Store(true); wg.Wait() }()

	// Warm the probe's view, then kill the partition primary.
	if _, err := probe.Put(probeKey, []byte("pre")); err != nil {
		return 0, err
	}
	kill := time.Now()
	_ = sp.servers[node.StoreRF*part].Close()
	for {
		if _, err := probe.Put(probeKey, []byte("post")); err == nil {
			return time.Since(kill), nil
		}
		if time.Since(kill) > 10*time.Second {
			return 0, fmt.Errorf("no write acked within 10s of the primary kill")
		}
	}
}
