package bench

// The `ingress` experiment measures what the pipelined ingress layer buys a
// client outside the fleet: remote submit throughput over one TCP loopback
// connection with one call in flight (depth 1) vs the same multiplexed
// connection at increasing pipeline depths, how aggregate throughput
// scales with extra client connections, and how quickly a client's routing
// cache converges after a migration makes it stale. PR 8 adds the batched
// sweep: SubmitBatch frames at increasing batch sizes and the coalesced Go
// path, which amortize the per-event wakeup that dominated the pipelined
// rows. Recorded as BENCH_6.json (pre-batching) and BENCH_8.json.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/transport"
)

// Ingress regenerates the ingress experiment tables.
func Ingress(o Options) ([]*Table, error) {
	dur := o.duration()
	accounts := 16

	tput := &Table{
		Title:   "Ingress: remote submit throughput — one call in flight vs a pipelined multiplexed connection (TCP loopback)",
		Columns: []string{"config", "clients", "depth", "ev/s", "mean", "speedup"},
		Notes: []string{
			"2-node fleet; every submit targets contexts hosted by a peer node, so each event crosses the mesh",
			fmt.Sprintf("pipelined: depth concurrent submits share one mux connection per node; %d accounts, %v per point", accounts, dur),
			"depth 1 is strict request/response on that connection; the speedup column is relative to it",
			"the PR 4/5 one-frame-per-event baseline (gob codec, no pipelining) measured 19.2k ev/s remote on TCP loopback (BENCH_4.json, mesh/tcp-mesh)",
			"expected shape: pipelined depth ≥64 on one connection clears 10× the PR 4/5 baseline; extra clients add connections and scale further until the node saturates",
		},
	}

	rows := []struct{ clients, depth int }{
		{1, 1}, {1, 16}, {1, 64}, {1, 256}, {2, 64}, {4, 64},
	}

	var baseline float64
	for _, r := range rows {
		o.progressf("ingress: pipelined clients=%d depth=%d\n", r.clients, r.depth)
		rate, mean, err := ingressThroughput(r.clients, r.depth, accounts, dur)
		if err != nil {
			return nil, fmt.Errorf("pipelined depth %d: %w", r.depth, err)
		}
		if baseline == 0 {
			baseline = rate
		}
		tput.Rows = append(tput.Rows, []string{
			"pipelined", fmt.Sprint(r.clients), fmt.Sprint(r.depth),
			fmtK(rate), fmtMS(mean), fmt.Sprintf("%.1fx", rate/baseline),
		})
	}

	batched := &Table{
		Title:   "Ingress: batched submit throughput — events per frame vs per-event frames (one TCP loopback connection)",
		Columns: []string{"config", "batch", "depth", "ev/s", "mean/event", "speedup"},
		Notes: []string{
			"same 2-node fleet and remote-account workload as the pipelined table; one client connection throughout",
			"batched: depth workers each keep one SubmitBatch of `batch` events in flight, so batch×depth events share the in-flight window but the fleet pays one wakeup and one admission per frame",
			"coalesced-go: async Go futures ride the per-node coalescer (default 100µs linger); mean/event includes the linger wait by design",
			"speedup is vs this table's batch=1 row — the same frames-per-event discipline as the pipelined table, so it isolates what packing alone buys",
			"expected shape: batch=1 within noise of pipelined at equal depth (the batch frame costs a few bytes more); throughput climbs steeply with batch size as the per-event wakeup amortizes away",
		},
	}
	type batchRow struct {
		label string
		batch int
		depth int
	}
	brows := []batchRow{
		{"batched", 1, 64},
		{"batched", 8, 64},
		{"batched", 32, 16},
		{"batched", 128, 4},
	}
	var batchBase float64
	for _, r := range brows {
		o.progressf("ingress: batched batch=%d depth=%d\n", r.batch, r.depth)
		rate, mean, err := ingressBatchThroughput(r.batch, r.depth, accounts, dur)
		if err != nil {
			return nil, fmt.Errorf("batched batch=%d: %w", r.batch, err)
		}
		if batchBase == 0 {
			batchBase = rate
		}
		batched.Rows = append(batched.Rows, []string{
			r.label, fmt.Sprint(r.batch), fmt.Sprint(r.depth),
			fmtK(rate), fmtMS(mean), fmt.Sprintf("%.1fx", rate/batchBase),
		})
	}
	o.progressf("ingress: coalesced-go\n")
	rate, mean, frames, events, err := ingressCoalescedThroughput(accounts, dur)
	if err != nil {
		return nil, fmt.Errorf("coalesced-go: %w", err)
	}
	batched.Rows = append(batched.Rows, []string{
		"coalesced-go", fmt.Sprintf("~%d", events/max64(frames, 1)), "512",
		fmtK(rate), fmtMS(mean), fmt.Sprintf("%.1fx", rate/batchBase),
	})

	o.progressf("ingress: stale-route repair\n")
	repair, err := ingressRepair(dur)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	return []*Table{tput, batched, repair}, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// ingressThroughput deploys a 2-node TCP fleet and drives it with nClients
// ingress clients, each keeping depth submits in flight against remotely
// hosted accounts.
func ingressThroughput(nClients, depth, accounts int, dur time.Duration) (float64, time.Duration, error) {
	mesh := transport.NewTCPMesh()
	d, err := node.Deploy(mesh, node.Topology{Nodes: 2, AccountsPerBank: accounts, EnableOps: true})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	if err := d.WaitReady(10 * time.Second); err != nil {
		return 0, 0, err
	}
	// Bank 2's accounts live on node 2; every submit from a client is a
	// remote event on one connection to that node.
	targets := d.Top.Accounts[1]

	clients := make([]*ingress.Client, nClients)
	for i := range clients {
		// Ops registries stay on (the realistic production posture: the
		// hot path pays only striped counters); per-frame tracing does
		// not — at 100k+ ev/s a span per executed submit serializes on
		// the event ring. The repair experiment keeps tracing on.
		c, err := ingress.Dial(mesh, ingress.Config{
			Nodes:  []transport.NodeID{1, 2},
			Window: depth,
		})
		if err != nil {
			return 0, 0, err
		}
		defer c.Close()
		// Warm the routing cache (and the connection) so the measured loop
		// never pays a first-touch forward or dial.
		for _, tgt := range targets {
			if _, err := c.Submit(tgt, "balance"); err != nil {
				return 0, 0, fmt.Errorf("warm: %w", err)
			}
		}
		clients[i] = c
	}

	var (
		ops      atomic.Int64
		totalNS  atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	for ci, c := range clients {
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func(c *ingress.Client, seq int) {
				defer wg.Done()
				for i := seq; time.Now().Before(deadline); i++ {
					t0 := time.Now()
					if _, err := c.Submit(targets[i%len(targets)], "deposit", 1); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					totalNS.Add(time.Since(t0).Nanoseconds())
					ops.Add(1)
				}
			}(c, ci*depth+w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, 0, err
	}
	n := ops.Load()
	if n == 0 {
		return 0, 0, fmt.Errorf("no operations completed")
	}
	return float64(n) / elapsed.Seconds(), time.Duration(totalNS.Load() / n), nil
}

// ingressBatchThroughput drives one client connection with depth workers,
// each keeping one SubmitBatch of `batch` events in flight against remotely
// hosted accounts. Returns event rate and mean per-event latency
// (frame latency / batch).
func ingressBatchThroughput(batch, depth, accounts int, dur time.Duration) (float64, time.Duration, error) {
	mesh := transport.NewTCPMesh()
	d, err := node.Deploy(mesh, node.Topology{Nodes: 2, AccountsPerBank: accounts, EnableOps: true})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	if err := d.WaitReady(10 * time.Second); err != nil {
		return 0, 0, err
	}
	targets := d.Top.Accounts[1]
	c, err := ingress.Dial(mesh, ingress.Config{Nodes: []transport.NodeID{1, 2}})
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	for _, tgt := range targets {
		if _, err := c.Submit(tgt, "balance"); err != nil {
			return 0, 0, fmt.Errorf("warm: %w", err)
		}
	}

	var (
		ops      atomic.Int64
		totalNS  atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	for w := 0; w < depth; w++ {
		wg.Add(1)
		go func(seq int) {
			defer wg.Done()
			items := make([]ingress.BatchItem, batch)
			for i := seq; time.Now().Before(deadline); i += batch {
				for j := range items {
					items[j] = ingress.BatchItem{Target: targets[(i+j)%len(targets)], Method: "deposit", Args: []any{1}}
				}
				t0 := time.Now()
				for k, r := range c.SubmitBatch(items) {
					if r.Err != nil {
						firstErr.CompareAndSwap(nil, fmt.Errorf("event %d: %w", k, r.Err))
						return
					}
				}
				totalNS.Add(time.Since(t0).Nanoseconds())
				ops.Add(int64(batch))
			}
		}(w * batch)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, 0, err
	}
	n := ops.Load()
	if n == 0 {
		return 0, 0, fmt.Errorf("no operations completed")
	}
	return float64(n) / elapsed.Seconds(), time.Duration(totalNS.Load() / n), nil
}

// ingressCoalescedThroughput drives the transparent batching path: producers
// fire async Go futures as fast as the in-flight window admits them and the
// per-node coalescer packs them into frames. Returns event rate, mean
// submit→resolve latency (linger included), and the fleet's frame/event
// counts so the table can report the achieved batch size.
func ingressCoalescedThroughput(accounts int, dur time.Duration) (float64, time.Duration, uint64, uint64, error) {
	mesh := transport.NewTCPMesh()
	d, err := node.Deploy(mesh, node.Topology{Nodes: 2, AccountsPerBank: accounts, EnableOps: true})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer d.Close()
	if err := d.WaitReady(10 * time.Second); err != nil {
		return 0, 0, 0, 0, err
	}
	targets := d.Top.Accounts[1]
	c, err := ingress.Dial(mesh, ingress.Config{Nodes: []transport.NodeID{1, 2}, Window: 512})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer c.Close()
	for _, tgt := range targets {
		if _, err := c.Submit(tgt, "balance"); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("warm: %w", err)
		}
	}
	framesBefore := d.Nodes[0].Batches() + d.Nodes[1].Batches()

	type inflight struct {
		f  *ingress.Future
		t0 time.Time
	}
	var (
		ops      atomic.Int64
		totalNS  atomic.Int64
		firstErr atomic.Value
		prodWG   sync.WaitGroup
		consWG   sync.WaitGroup
	)
	const producers = 4
	pending := make(chan inflight, 1024)
	deadline := time.Now().Add(dur)
	start := time.Now()
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(seq int) {
			defer prodWG.Done()
			for i := seq; time.Now().Before(deadline); i++ {
				f := c.Go(targets[i%len(targets)], "deposit", 1)
				pending <- inflight{f, time.Now()}
			}
		}(p)
	}
	consWG.Add(1)
	go func() {
		defer consWG.Done()
		for in := range pending {
			if _, err := in.f.Wait(); err != nil {
				firstErr.CompareAndSwap(nil, err)
				continue
			}
			totalNS.Add(time.Since(in.t0).Nanoseconds())
			ops.Add(1)
		}
	}()
	prodWG.Wait()
	close(pending)
	consWG.Wait()
	elapsed := time.Since(start)
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, 0, 0, 0, err
	}
	n := ops.Load()
	if n == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no operations completed")
	}
	frames := d.Nodes[0].Batches() + d.Nodes[1].Batches() - framesBefore
	return float64(n) / elapsed.Seconds(), time.Duration(totalNS.Load() / n), frames, uint64(n), nil
}

// ingressRepair measures routing-cache convergence: a client with a warm
// route to a group watches it migrate, then keeps submitting. The stale
// route costs server-side forwarding hops until the authoritative response
// repairs the cache; convergence is how many submits that takes.
func ingressRepair(dur time.Duration) (*Table, error) {
	mesh := transport.NewTCPMesh()
	d, err := node.Deploy(mesh, node.Topology{Nodes: 2, EnableOps: true})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	if err := d.WaitReady(10 * time.Second); err != nil {
		return nil, err
	}
	c, err := ingress.Dial(mesh, ingress.Config{Nodes: []transport.NodeID{1, 2}, Trace: true})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	acct := d.Top.Accounts[1][0]
	if _, err := c.Submit(acct, "balance"); err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	// Move bank 2's group node 2 → node 1; the client's cache is now stale.
	if err := d.Nodes[0].MigrateRemote(2, d.Top.Banks[1], 1); err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}

	fwdBefore := d.Nodes[1].Forwarded()
	staleSubmits := 0
	var repairLatency time.Duration
	for {
		t0 := time.Now()
		if _, err := c.Submit(acct, "balance"); err != nil {
			return nil, err
		}
		repairLatency = time.Since(t0)
		staleSubmits++
		if host, ok := c.Route(acct); ok && host == 1 {
			break
		}
		if staleSubmits > 100 {
			return nil, fmt.Errorf("route did not converge after %d submits", staleSubmits)
		}
	}
	hops := d.Nodes[1].Forwarded() - fwdBefore

	// Post-repair latency: direct submits to the new host.
	var (
		ops   int
		total time.Duration
		start = time.Now()
	)
	for time.Since(start) < dur {
		t0 := time.Now()
		if _, err := c.Submit(acct, "balance"); err != nil {
			return nil, err
		}
		total += time.Since(t0)
		ops++
	}
	directMean := total / time.Duration(ops)

	return &Table{
		Title:   "Ingress: stale-route repair after migration",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"submits to converge", fmt.Sprint(staleSubmits)},
			{"forward hops paid", fmt.Sprint(hops)},
			{"repairing submit latency", fmtMS(repairLatency)},
			{"post-repair direct mean", fmtMS(directMean)},
		},
		Notes: []string{
			"a stale route never fails a submit: the old host forwards and the response's Host field repairs the client cache",
			"expected shape: convergence in 1 submit paying exactly 1 forward hop; post-repair latency matches a normal remote submit",
		},
	}, nil
}
