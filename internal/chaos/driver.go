package chaos

// The oracle-diffed traffic driver. Workers generate scenario soak ops and
// submit them through live nodes while faults fire; per-entity accounting
// tracks exactly what the harness may later assert. The core discipline is
// outcome classification:
//
//   - acked: the submit returned success — its effects MUST be visible.
//   - failed: the error proves the event never executed — its code's retry
//     class (schema.Code.Class) is not-executed, or it is a link failure the
//     synchronous in-memory mesh raised on the request hop — its effects
//     MUST NOT be counted.
//   - ambiguous: anything else (class unknown, or executed-and-failed). The
//     event may or may not have executed, so its effects widen the upper
//     bound of the entity's counter.
//
// The class is read from the error as it arrived: a coded sentinel in-process,
// a schema.Coded over the ingress wire. Nothing here matches message text.
//
// That yields the soak invariant checked at every checkpoint and at the
// final quiesce: for every entity, observed - baseline ∈ [ackedLow,
// started], where started is the delta sum of every op that began, and —
// after quiescing — observed - baseline ∈ [acked, acked + ambiguous], with
// equality required when ambiguity is zero.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/ingress"
	"aeon/internal/metrics"
	"aeon/internal/node"
	"aeon/internal/schema"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

// entityAcct is one entity's soak accounting.
type entityAcct struct {
	started atomic.Uint64 // delta sum of every op that began (upper bound)
	acked   atomic.Uint64 // delta sum of acknowledged ops (lower bound)
	ambig   atomic.Uint64 // delta sum of ambiguous-outcome ops
}

// driver runs soak traffic against a deployment.
type driver struct {
	scen  workload.Scenario
	nodes []transport.NodeID
	alive []atomic.Bool // alive[i] gates submits via nodes[i]
	// byID is the driver's own node handle map: the runner swaps handles in
	// on restart under mu, so workers never race Deployment.Restart's write
	// to the deployment's slice.
	mu      sync.RWMutex
	byID    map[transport.NodeID]*node.Node
	ents    []entityAcct
	lat     *metrics.Histogram
	ingress *ingress.Client // non-nil: submits ride batched ingress frames

	attempts  atomic.Uint64
	acked     atomic.Uint64
	failed    atomic.Uint64
	ambiguous atomic.Uint64

	// hazard is the unixnano stamp of the latest reply-loss hazard: the
	// instant a partition finished engaging or a node finished dying. A
	// call in flight across that instant may have executed and lost only
	// its reply (the sim network checks the partition on the reply hop
	// too), so partition/closed errors on ops started before the stamp are
	// ambiguous, not proof of non-execution.
	hazard atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

func newDriver(scen workload.Scenario, d *node.Deployment, ing *ingress.Client) *driver {
	dr := &driver{
		scen:    scen,
		byID:    make(map[transport.NodeID]*node.Node),
		ents:    make([]entityAcct, scen.Entities()),
		lat:     &metrics.Histogram{},
		ingress: ing,
		stop:    make(chan struct{}),
	}
	for _, n := range d.Nodes {
		dr.nodes = append(dr.nodes, n.ID())
		dr.byID[n.ID()] = n
	}
	dr.alive = make([]atomic.Bool, len(dr.nodes))
	for i := range dr.alive {
		dr.alive[i].Store(true)
	}
	return dr
}

// retrySafe reports whether err proves the event did not execute: the table
// says so, or it is one of the three link-level codes. Their class is unknown
// — on a real network a lost request and a lost reply look alike — but this
// harness runs the synchronous in-memory mesh, where one raised on the
// request hop means the handler never ran.
func retrySafe(err error) bool {
	switch c := schema.CodeOf(err); c {
	case schema.CodeLinkDropped, schema.CodeLinkPartitioned, schema.CodeLinkClosed:
		return true
	default:
		return c.Class() == schema.NotExecuted
	}
}

// noteHazard stamps a reply-loss hazard instant; the runner calls it right
// after a partition engages or a victim's process is torn down.
func (dr *driver) noteHazard() { dr.hazard.Store(time.Now().UnixNano()) }

// hazardSensitive reports whether err is one of the kinds a reply loss can
// masquerade as: the request-side variants of these are retry-safe, but a
// call that was already past its request hop fails identically when the
// fault lands on the reply. (An injected drop only ever eats the request.)
func hazardSensitive(err error) bool {
	c := schema.CodeOf(err)
	return c == schema.CodeLinkPartitioned || c == schema.CodeLinkClosed
}

// markDead/markAlive gate which nodes workers submit through.
func (dr *driver) markDead(id transport.NodeID) {
	for i, n := range dr.nodes {
		if n == id {
			dr.alive[i].Store(false)
		}
	}
}

func (dr *driver) markAlive(id transport.NodeID) {
	for i, n := range dr.nodes {
		if n == id {
			dr.alive[i].Store(true)
		}
	}
}

// submitter returns the submit function routed via the given live node —
// plain node submits, or batched ingress futures when the driver has an
// ingress client (the IoT soak shape: high fan-in telemetry riding
// coalesced submit frames).
func (dr *driver) submit(op workload.SoakOp) error {
	if dr.ingress != nil {
		_, err := dr.ingress.Go(op.Target, op.Method, op.Args...).Wait()
		return err
	}
	// Round-robin over live nodes, deterministic enough for soak purposes.
	start := int(dr.attempts.Load())
	for i := 0; i < len(dr.nodes); i++ {
		idx := (start + i) % len(dr.nodes)
		if !dr.alive[idx].Load() {
			continue
		}
		dr.mu.RLock()
		n := dr.byID[dr.nodes[idx]]
		dr.mu.RUnlock()
		if n == nil {
			continue
		}
		_, err := n.Submit(op.Target, op.Method, op.Args...)
		return err
	}
	return transport.ErrNodeUnknown // no live node to submit through
}

// setNode swaps in a restarted node's handle.
func (dr *driver) setNode(n *node.Node) {
	dr.mu.Lock()
	dr.byID[n.ID()] = n
	dr.mu.Unlock()
}

// run starts workers generating seeded soak traffic until stopDriver.
func (dr *driver) run(seed int64, workers int) {
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(seed + int64(w)*7919))
		dr.wg.Add(1)
		go func() {
			defer dr.wg.Done()
			for {
				select {
				case <-dr.stop:
					return
				default:
				}
				dr.step(rng)
			}
		}()
	}
}

// step generates and submits one op, classifying its outcome.
func (dr *driver) step(rng *rand.Rand) {
	op := dr.scen.SoakOp(rng)
	for _, ef := range op.Effects {
		dr.ents[ef.Entity].started.Add(ef.Delta)
	}
	dr.attempts.Add(1)
	t0 := time.Now()
	err := dr.submit(op)
	dr.lat.Record(time.Since(t0))
	switch {
	case err == nil:
		dr.acked.Add(1)
		for _, ef := range op.Effects {
			dr.ents[ef.Entity].acked.Add(ef.Delta)
		}
	case retrySafe(err) && !(hazardSensitive(err) && t0.UnixNano() < dr.hazard.Load()):
		dr.failed.Add(1)
		time.Sleep(time.Millisecond) // back off instead of hammering a fault
	default:
		dr.ambiguous.Add(1)
		for _, ef := range op.Effects {
			dr.ents[ef.Entity].ambig.Add(ef.Delta)
		}
	}
}

// stopDriver halts the workers and waits for in-flight ops to finish.
func (dr *driver) stopDriver() {
	close(dr.stop)
	dr.wg.Wait()
}

// availability is the fraction of attempted ops that were acknowledged.
func (dr *driver) availability() float64 {
	att := dr.attempts.Load()
	if att == 0 {
		return 1
	}
	return float64(dr.acked.Load()) / float64(att)
}
