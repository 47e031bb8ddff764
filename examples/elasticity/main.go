// Elasticity: the § 6.2 experiment in miniature, on the public API.
//
// A fleet of counter services starts on two small servers; as a bell-curve
// client ramp pushes latency past the 10 ms SLA, the eManager scales out
// (adding m1.small servers and migrating contexts onto them, using the
// five-step migration protocol), then scales back in as the load recedes.
//
// Run with: go run ./examples/elasticity
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aeon"
)

type counter struct{ N int }

func buildSchema() *aeon.Schema {
	s := aeon.NewSchema()
	svc := s.MustDeclareClass("Service", func() any { return &counter{} })
	svc.MustDeclareMethod("handle", func(call aeon.Call, args []any) (aeon.Value, error) {
		st := call.State().(*counter)
		st.N++
		call.Work(400 * time.Microsecond) // per-request compute
		return aeon.Int(st.N), nil
	})
	return s
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		sla        = 10 * time.Millisecond
		minServers = 2
		maxServers = 8
		nServices  = 16
		duration   = 24 * time.Second
	)
	sys, err := aeon.New(
		aeon.WithSchema(buildSchema()),
		aeon.WithServers(minServers, aeon.M1Small),
	)
	if err != nil {
		return err
	}
	defer sys.Close()

	var services []aeon.ContextID
	servers := sys.Cluster.Servers()
	for i := 0; i < nServices; i++ {
		id, err := sys.Runtime.CreateContextOn(servers[i%len(servers)].ID(), "Service")
		if err != nil {
			return err
		}
		services = append(services, id)
	}

	sys.Manager.AddPolicy(&aeon.SLAPolicy{
		Target:     sla,
		Profile:    aeon.M1Small,
		MinServers: minServers,
		Cooldown:   2 * time.Second,
	})
	sys.Manager.AddConstraint(aeon.MaxServers(maxServers))
	sys.Manager.Start()
	defer sys.Manager.Stop()

	fmt.Printf("%-6s %-8s %-8s %-12s %s\n", "t", "clients", "servers", "latency", "SLA")

	var stop atomic.Bool
	var wg sync.WaitGroup
	activeClients := func(t float64) int {
		// Bell curve: 2 → 48 → 2 clients over the run.
		mid := duration.Seconds() / 2
		sigma := duration.Seconds() / 6
		bell := math.Exp(-((t - mid) * (t - mid)) / (2 * sigma * sigma))
		return 2 + int(46*bell)
	}

	var quits []chan struct{}
	start := time.Now()
	for now := time.Duration(0); now < duration; now += time.Second {
		want := activeClients(now.Seconds())
		for len(quits) < want {
			q := make(chan struct{})
			quits = append(quits, q)
			wg.Add(1)
			go func(q <-chan struct{}, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					select {
					case <-q:
						return
					default:
					}
					svc := services[rng.Intn(len(services))]
					if _, err := sys.Runtime.Submit(svc, "handle"); err != nil {
						return
					}
				}
			}(q, int64(len(quits)))
		}
		for len(quits) > want {
			close(quits[len(quits)-1])
			quits = quits[:len(quits)-1]
		}
		lat := sys.Runtime.RecentLatency()
		status := "ok"
		if lat > sla {
			status = "VIOLATED"
		}
		fmt.Printf("%-6.0fs %-8d %-8d %-12v %s\n",
			time.Since(start).Seconds(), want, sys.Cluster.Size(),
			lat.Round(100*time.Microsecond), status)
		time.Sleep(time.Second)
	}
	stop.Store(true)
	for _, q := range quits {
		close(q)
	}
	wg.Wait()

	fmt.Printf("run complete: %d requests, %d migrations performed by the eManager\n",
		sys.Runtime.Completed(), sys.Manager.Migrations.Value())
	return nil
}
