package main

import (
	"sync"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/transport"
)

// background is iot_elastic's load beside the event stream: a provision
// every 50 ms (a context creation sequenced through the replicated mutation
// log) and a churn loop that keeps moving the migratable region groups to
// the next server. Both run across every measured phase. In the traced run
// every provision and every move is also a span.
type background struct {
	stop chan struct{}
	wg   sync.WaitGroup

	provisionUS []float64 // client latency of each acknowledged provision
	moveMS      []float64 // wall time of each completed MigrateRemote
	attempted   int64
	failed      int64
	// lastHost is where the churn loop left each root it moved.
	lastHost map[int]cluster.ServerID
}

func startBackground(f *fleet, tr *tracer) *background {
	b := &background{stop: make(chan struct{}), lastHost: make(map[int]cluster.ServerID)}
	if !f.spec.Elastic {
		return b
	}
	var mu sync.Mutex // guards attempted/failed between the two loops
	count := func(err error) {
		mu.Lock()
		b.attempted++
		if err != nil {
			b.failed++
			logf("background op failed: %v", err)
		}
		mu.Unlock()
	}
	sleep := func(d time.Duration) bool {
		select {
		case <-b.stop:
			return false
		case <-time.After(d):
			return true
		}
	}

	b.wg.Add(2)
	go func() { // provision stream
		defer b.wg.Done()
		target, method, args := f.scen.ChurnOp() // Region 0 "provision"
		for sleep(time.Duration(provisionEverySeconds * float64(time.Second))) {
			d, err := tr.timed("replication.mutation_event", -1, int64(len(b.provisionUS)), func() error {
				_, err := f.paced.Submit(target, method, args...)
				return err
			})
			if err == nil {
				b.provisionUS = append(b.provisionUS, float64(d.Nanoseconds())/1e3)
			}
			count(err)
		}
	}()
	go func() { // migration churn
		defer b.wg.Done()
		roots := f.scen.Roots()
		host := make(map[int]cluster.ServerID)
		for _, r := range f.migratable {
			host[r] = f.scen.RootServer(r)
		}
		for {
			for _, r := range f.migratable {
				if !sleep(time.Duration(churnPauseSeconds * float64(time.Second))) {
					return
				}
				to := cluster.ServerID(int(host[r])%f.spec.Nodes + 1)
				d, err := tr.timed("migration.group_move", -1, int64(len(b.moveMS)), func() error {
					return f.dep.Nodes[0].MigrateRemote(transport.NodeID(host[r]), roots[r], to)
				})
				count(err)
				if err != nil {
					continue
				}
				b.moveMS = append(b.moveMS, float64(d.Nanoseconds())/1e6)
				host[r] = to
				b.lastHost[r] = to
			}
		}
	}()
	return b
}

// halt stops both loops and waits for the operation each has in flight.
func (b *background) halt() {
	close(b.stop)
	b.wg.Wait()
}
