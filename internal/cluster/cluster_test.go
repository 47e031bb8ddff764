package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"aeon/internal/transport"
)

func TestAddRemoveServer(t *testing.T) {
	c := New(transport.NullNetwork{})
	s1 := c.AddServer(M3Large)
	s2 := c.AddServer(M1Small)
	if c.Size() != 2 {
		t.Fatalf("size = %d; want 2", c.Size())
	}
	if s1.ID() == s2.ID() {
		t.Fatal("server IDs must be unique")
	}
	got, ok := c.Server(s1.ID())
	if !ok || got != s1 {
		t.Fatal("Server lookup failed")
	}
	if err := c.RemoveServer(s1.ID()); err != nil {
		t.Fatal(err)
	}
	if !s1.Removed() {
		t.Fatal("server should be marked removed")
	}
	if _, ok := c.Server(s1.ID()); ok {
		t.Fatal("removed server should be gone")
	}
	if err := c.RemoveServer(s1.ID()); !errors.Is(err, ErrNoSuchServer) {
		t.Fatalf("err = %v; want ErrNoSuchServer", err)
	}
}

func TestRemoveServerRefusesHostedContexts(t *testing.T) {
	c := New(transport.NullNetwork{})
	s := c.AddServer(M3Large)
	s.AddHosted(3)
	if err := c.RemoveServer(s.ID()); err == nil {
		t.Fatal("removing a server with hosted contexts must fail")
	}
	s.AddHosted(-3)
	if err := c.RemoveServer(s.ID()); err != nil {
		t.Fatal(err)
	}
}

func TestServersOrdered(t *testing.T) {
	c := New(transport.NullNetwork{})
	for i := 0; i < 5; i++ {
		c.AddServer(M3Large)
	}
	servers := c.Servers()
	for i := 1; i < len(servers); i++ {
		if servers[i-1].ID() >= servers[i].ID() {
			t.Fatal("servers not ordered by ID")
		}
	}
}

func TestWorkOccupiesSlot(t *testing.T) {
	c := New(transport.NullNetwork{})
	s := c.AddServer(Profile{Name: "uni", Cores: 1, Speed: 1.0})
	start := time.Now()
	var wg sync.WaitGroup
	// Two 20ms jobs on one core must take ≥40ms.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Work(20 * time.Millisecond)
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("elapsed %v; want ≥40ms (serialization on one core)", el)
	}
}

func TestWorkParallelOnMultipleCores(t *testing.T) {
	c := New(transport.NullNetwork{})
	s := c.AddServer(Profile{Name: "duo", Cores: 2, Speed: 1.0})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Work(30 * time.Millisecond)
		}()
	}
	wg.Wait()
	if el := time.Since(start); el > 55*time.Millisecond {
		t.Fatalf("elapsed %v; want ≈30ms (two cores in parallel)", el)
	}
}

func TestWorkSpeedScaling(t *testing.T) {
	c := New(transport.NullNetwork{})
	slow := c.AddServer(Profile{Name: "slow", Cores: 1, Speed: 0.5})
	start := time.Now()
	slow.Work(10 * time.Millisecond)
	if el := time.Since(start); el < 19*time.Millisecond {
		t.Fatalf("elapsed %v; want ≥20ms at half speed", el)
	}
}

func TestWorkZeroFree(t *testing.T) {
	c := New(transport.NullNetwork{})
	s := c.AddServer(M3Large)
	s.Work(0)
	s.Work(-time.Second)
	if busy := s.busyNs.Load(); busy != 0 {
		t.Fatalf("zero and negative work charged %v of busy time", time.Duration(busy))
	}
	if n := len(s.slots); n != 0 {
		t.Fatalf("zero work left %d worker slots taken", n)
	}
}

func TestUtilization(t *testing.T) {
	c := New(transport.NullNetwork{})
	s := c.AddServer(Profile{Name: "uni", Cores: 1, Speed: 1.0})
	_ = s.Utilization() // anchor the sampling window
	s.Work(30 * time.Millisecond)
	u := s.Utilization()
	if u < 0.2 || u > 1.0 {
		t.Fatalf("utilization = %v; want high after busy window", u)
	}
	// Sampled 30ms later with no work in between, the window was idle.
	u = s.utilizationAt(s.lastSample.Add(30 * time.Millisecond))
	if u > 0.2 {
		t.Fatalf("utilization = %v; want low after idle window", u)
	}
}

func TestHopChargesNetwork(t *testing.T) {
	sim := transport.NewSim(transport.SimConfig{BaseLatency: 5 * time.Millisecond})
	c := New(sim)
	s1 := c.AddServer(M3Large)
	s2 := c.AddServer(M3Large)
	start := time.Now()
	if err := c.Hop(s1.ID(), s2.ID(), 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 4*time.Millisecond {
		t.Fatalf("hop took %v; want ≥5ms", el)
	}
	// Same-server hops are free.
	start = time.Now()
	if err := c.Hop(s1.ID(), s1.ID(), 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Millisecond {
		t.Fatalf("local hop took %v", el)
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{M3Large, M1Large, M1Medium, M1Small} {
		if p.Cores <= 0 || p.Speed <= 0 || p.MigrationMBps <= 0 || p.Name == "" {
			t.Fatalf("bad profile %+v", p)
		}
	}
	if M1Small.Speed >= M1Medium.Speed || M1Medium.Speed >= M1Large.Speed {
		t.Fatal("profile speeds must be ordered small < medium < large")
	}
}
