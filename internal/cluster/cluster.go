// Package cluster simulates the paper's EC2 deployment substrate: a set of
// servers, each with a bounded amount of CPU parallelism (cores), a relative
// speed, and a NIC bandwidth profile, joined by a transport.Network that
// charges cross-server message latency.
//
// Event handlers consume simulated CPU via Server.Work, which occupies one of
// the server's worker slots for the scaled duration — so a saturated server
// queues work exactly like a saturated VM, which is what produces the
// latency knees in Figures 5b/6b and the SLA violations in Figure 7.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aeon/internal/transport"
)

// ServerID identifies a server; it doubles as the transport node ID.
type ServerID = transport.NodeID

// Profile describes an instance type. Speeds are relative to m3.large (the
// paper's system-under-test instance); migration bandwidth and per-core
// counts are calibrated so Figure 9's ratios reproduce.
type Profile struct {
	// Name of the instance type.
	Name string
	// Cores is the number of concurrently executing worker slots.
	Cores int
	// Speed scales simulated CPU: Work(d) occupies a slot for d/Speed.
	Speed float64
	// MigrationMBps is the NIC bandwidth available to context state
	// transfer during migration.
	MigrationMBps float64
}

// Instance profiles used by the paper's evaluation (§ 6).
var (
	// M3Large hosts AEON/AEON_SO/EventWave servers in §§ 6.1.
	M3Large = Profile{Name: "m3.large", Cores: 2, Speed: 1.0, MigrationMBps: 100}
	// M1Large, M1Medium and M1Small are used by the elasticity and
	// migration experiments (§§ 6.2–6.3).
	M1Large  = Profile{Name: "m1.large", Cores: 2, Speed: 0.9, MigrationMBps: 71}
	M1Medium = Profile{Name: "m1.medium", Cores: 1, Speed: 0.6, MigrationMBps: 42}
	M1Small  = Profile{Name: "m1.small", Cores: 1, Speed: 0.4, MigrationMBps: 25}
)

// ErrNoSuchServer is returned when a server ID is unknown.
var ErrNoSuchServer = errors.New("cluster: no such server")

// Server is one simulated machine.
type Server struct {
	id      ServerID
	profile Profile
	slots   chan struct{}

	busyNs        atomic.Int64
	hosted        atomic.Int64
	transferBytes atomic.Int64

	sampleMu   sync.Mutex
	lastbusyNs int64
	lastSample time.Time

	removed atomic.Bool
}

// ID returns the server's ID.
func (s *Server) ID() ServerID { return s.id }

// Profile returns the server's instance profile.
func (s *Server) Profile() Profile { return s.profile }

// spinThreshold is the boundary below which simulated CPU burns as a busy
// spin: time.Sleep has a ~1ms granularity floor on common kernels that
// would flatten sub-millisecond cost differences between systems, while a
// spin is accurate to microseconds (and models CPU consumption faithfully).
const spinThreshold = time.Millisecond

// Work consumes d of simulated CPU: it occupies one worker slot for
// d/Speed wall-clock time. Zero or negative durations are free.
func (s *Server) Work(d time.Duration) {
	if d <= 0 {
		return
	}
	scaled := time.Duration(float64(d) / s.profile.Speed)
	s.slots <- struct{}{}
	if scaled < spinThreshold {
		start := time.Now()
		for time.Since(start) < scaled {
		}
	} else {
		time.Sleep(scaled)
	}
	<-s.slots
	s.busyNs.Add(scaled.Nanoseconds())
}

// Hosted returns the number of contexts currently placed on this server.
func (s *Server) Hosted() int { return int(s.hosted.Load()) }

// AddHosted adjusts the hosted-context count (called by the placement
// directory on placement and migration).
func (s *Server) AddHosted(delta int) { s.hosted.Add(int64(delta)) }

// AddTransferBytes records migration state-transfer traffic through this
// server's NIC (charged on both endpoints of a group move).
func (s *Server) AddTransferBytes(n int64) { s.transferBytes.Add(n) }

// TransferBytes returns the cumulative migration state-transfer traffic.
func (s *Server) TransferBytes() int64 { return s.transferBytes.Load() }

// Utilization returns the fraction of core-time spent busy since the last
// call (the resource-utilization signal the eManager polls, § 5.2).
func (s *Server) Utilization() float64 { return s.utilizationAt(time.Now()) }

// utilizationAt is Utilization sampled at instant now.
func (s *Server) utilizationAt(now time.Time) float64 {
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	busy := s.busyNs.Load()
	if s.lastSample.IsZero() {
		s.lastSample = now
		s.lastbusyNs = busy
		return 0
	}
	elapsed := now.Sub(s.lastSample)
	if elapsed <= 0 {
		return 0
	}
	deltaBusy := busy - s.lastbusyNs
	s.lastSample = now
	s.lastbusyNs = busy
	u := float64(deltaBusy) / (float64(elapsed.Nanoseconds()) * float64(s.profile.Cores))
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return u
}

// Removed reports whether the server was removed from the cluster.
func (s *Server) Removed() bool { return s.removed.Load() }

// Cluster is a set of servers joined by a network. Like the ownership graph,
// the server map is copy-on-write: membership lives in an immutable view
// behind an atomic pointer, so the per-event lookups (Server on every route
// and Work charge) never take a lock; AddServer/RemoveServer — rare
// elasticity actions — rebuild the view under a writer-only mutex.
type Cluster struct {
	net transport.Network

	mu     sync.Mutex // writers only: AddServer / RemoveServer
	view   atomic.Pointer[clusterView]
	nextID ServerID
}

// clusterView is one immutable version of cluster membership.
type clusterView struct {
	byID    map[ServerID]*Server
	ordered []*Server // sorted by ID
}

// New returns an empty cluster on the given network.
func New(net transport.Network) *Cluster {
	c := &Cluster{net: net, nextID: 1}
	c.view.Store(&clusterView{byID: make(map[ServerID]*Server)})
	return c
}

// Net returns the cluster's network.
func (c *Cluster) Net() transport.Network { return c.net }

// publishLocked installs a new membership view built from byID. Caller holds
// c.mu.
func (c *Cluster) publishLocked(byID map[ServerID]*Server) {
	ordered := make([]*Server, 0, len(byID))
	for _, s := range byID {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].id < ordered[j].id })
	c.view.Store(&clusterView{byID: byID, ordered: ordered})
}

// AddServer provisions a server with the given profile ("scale out").
func (c *Cluster) AddServer(p Profile) *Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	s := &Server{id: id, profile: p, slots: make(chan struct{}, p.Cores)}
	cur := c.view.Load()
	byID := make(map[ServerID]*Server, len(cur.byID)+1)
	for k, v := range cur.byID {
		byID[k] = v
	}
	byID[id] = s
	c.publishLocked(byID)
	return s
}

// RemoveServer releases a server ("scale in"). The caller (the eManager)
// must have migrated its contexts away first.
func (c *Cluster) RemoveServer(id ServerID) error {
	return c.removeServer(id, false)
}

// ForceRemoveServer releases a server without the hosted-contexts check.
// Replication log applies use it: the drain was validated on the node that
// captured the mutation against its authoritative counters, and replica
// nodes — whose hosted counters are best-effort routing metadata — must
// apply the removal identically or cluster membership would diverge.
func (c *Cluster) ForceRemoveServer(id ServerID) error {
	return c.removeServer(id, true)
}

func (c *Cluster) removeServer(id ServerID, force bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.view.Load()
	s, ok := cur.byID[id]
	if !ok {
		return fmt.Errorf("%v: %w", id, ErrNoSuchServer)
	}
	if n := s.hosted.Load(); n != 0 && !force {
		return fmt.Errorf("cluster: server %v still hosts %d contexts", id, n)
	}
	s.removed.Store(true)
	byID := make(map[ServerID]*Server, len(cur.byID)-1)
	for k, v := range cur.byID {
		if k != id {
			byID[k] = v
		}
	}
	c.publishLocked(byID)
	return nil
}

// Server returns the server with the given ID (lock-free).
func (c *Cluster) Server(id ServerID) (*Server, bool) {
	s, ok := c.view.Load().byID[id]
	return s, ok
}

// Servers returns all live servers ordered by ID (lock-free).
func (c *Cluster) Servers() []*Server {
	return append([]*Server(nil), c.view.Load().ordered...)
}

// Size returns the number of live servers (lock-free).
func (c *Cluster) Size() int {
	return len(c.view.Load().ordered)
}

// Hop charges one cross-server message of the given size.
func (c *Cluster) Hop(from, to ServerID, bytes int) error {
	if from == to {
		return nil
	}
	return c.net.Hop(from, to, bytes)
}
