// Package transport provides the network substrate for the AEON
// reproduction: a latency-model Network used by the simulated cluster to
// charge cross-server hops (the stand-in for the paper's EC2 data-center
// network), and a message Mesh with in-memory and TCP implementations used
// where real request/response messaging is exercised (multi-process
// deployments, migration state transfer, cloud-store access).
package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aeon/internal/schema"
)

// NodeID identifies a node (server) on the network.
type NodeID int

// ClientNode is the logical network location of external clients; hops
// between clients and servers are charged against it.
const ClientNode = NodeID(-1)

// String renders the node ID.
func (n NodeID) String() string { return fmt.Sprintf("node%d", int(n)) }

// ErrPartitioned is returned when a link is administratively blocked.
var ErrPartitioned error = schema.CodeLinkPartitioned

// Network models message delivery cost between nodes. Implementations must
// be safe for concurrent use.
type Network interface {
	// Hop blocks for the delivery latency of a message of the given size
	// and returns an error if the link is unavailable.
	Hop(from, to NodeID, bytes int) error
	// Latency reports the delivery latency without sleeping.
	Latency(from, to NodeID, bytes int) time.Duration
}

// SimConfig parameterizes the simulated network.
type SimConfig struct {
	// BaseLatency is the one-way latency of any cross-node message.
	BaseLatency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// BandwidthMBps is the per-link bandwidth applied to payload bytes;
	// zero means payload size is free.
	BandwidthMBps float64
	// LocalLatency is the latency of a same-node message (loopback).
	LocalLatency time.Duration
	// Seed seeds the jitter source; zero picks a fixed default so runs are
	// reproducible unless configured otherwise.
	Seed int64
}

// DefaultSimConfig returns the latency model used by the benchmark harness:
// an intra-datacenter network in the spirit of the paper's EC2 deployment.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		BaseLatency:   200 * time.Microsecond,
		Jitter:        50 * time.Microsecond,
		BandwidthMBps: 100,
		LocalLatency:  0,
	}
}

// SimNetwork is an in-memory latency-model network with optional partitions.
type SimNetwork struct {
	cfg SimConfig

	mu      sync.Mutex
	rng     *rand.Rand
	blocked map[[2]NodeID]bool
}

var _ Network = (*SimNetwork)(nil)

// NewSim returns a simulated network with the given configuration.
func NewSim(cfg SimConfig) *SimNetwork {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &SimNetwork{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[[2]NodeID]bool),
	}
}

// Latency implements Network.
func (s *SimNetwork) Latency(from, to NodeID, bytes int) time.Duration {
	if from == to {
		return s.cfg.LocalLatency
	}
	d := s.cfg.BaseLatency
	if s.cfg.Jitter > 0 {
		s.mu.Lock()
		d += time.Duration(s.rng.Int63n(int64(s.cfg.Jitter)))
		s.mu.Unlock()
	}
	if s.cfg.BandwidthMBps > 0 && bytes > 0 {
		perByte := float64(time.Second) / (s.cfg.BandwidthMBps * 1e6)
		d += time.Duration(perByte * float64(bytes))
	}
	return d
}

// Hop implements Network.
func (s *SimNetwork) Hop(from, to NodeID, bytes int) error {
	s.mu.Lock()
	cut := s.blocked[[2]NodeID{from, to}]
	s.mu.Unlock()
	if cut {
		return fmt.Errorf("%v→%v: %w", from, to, ErrPartitioned)
	}
	if d := s.Latency(from, to, bytes); d > 0 {
		time.Sleep(d)
	}
	return nil
}

// Partition blocks the directed link from→to until Heal is called.
func (s *SimNetwork) Partition(from, to NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocked[[2]NodeID{from, to}] = true
}

// Heal unblocks the directed link from→to.
func (s *SimNetwork) Heal(from, to NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blocked, [2]NodeID{from, to})
}

// NullNetwork is a Network with zero latency everywhere; useful in unit
// tests that exercise protocol logic without timing.
type NullNetwork struct{}

var _ Network = NullNetwork{}

// Hop implements Network.
func (NullNetwork) Hop(_, _ NodeID, _ int) error { return nil }

// Latency implements Network.
func (NullNetwork) Latency(_, _ NodeID, _ int) time.Duration { return 0 }
