// Command aeon-node runs one AEON server as an OS process attached to the
// TCP transport mesh, so a deployment of N processes serves one logical
// AEON system (multi-process deployment; see README "Multi-process
// deployment").
//
// Every process is launched from the same flags and deterministically
// rebuilds the same topology, so context IDs and placements agree without
// coordination; each process then embodies the server matching its -id.
// Node 1 (by default) also serves the authoritative cloud store to its
// peers.
//
// Serve two nodes on loopback, then drive cross-node traffic and a live
// migration from node 1:
//
//	aeon-node -id 2 -peers "1=127.0.0.1:7101,2=127.0.0.1:7102" &
//	aeon-node -id 1 -peers "1=127.0.0.1:7101,2=127.0.0.1:7102" -drive
//
// With the sharded, replicated store plane, dedicated store-server
// processes replace the store-serving node: store replica k appears in
// -peers as "s<k>=host:port", partition p is served by the StoreRF-replica
// set s(3p+1)..s(3p+3) (boot primary first; writes are acknowledged only
// once a majority of the set holds them), and -store-parts tells the nodes
// how many partitions the plane has. A 1-partition plane on loopback:
//
//	aeon-node -serve-store 1 -peers "$P" &
//	aeon-node -serve-store 2 -peers "$P" &
//	aeon-node -serve-store 3 -peers "$P" &
//	aeon-node -id 2 -peers "$P" -store-parts 1 &
//	aeon-node -id 1 -peers "$P" -store-parts 1 -drive
//
// where P="1=127.0.0.1:7101,2=127.0.0.1:7102,s1=127.0.0.1:7201,s2=127.0.0.1:7202,s3=127.0.0.1:7203".
//
// -drive replays a deterministic bank workload across the deployment,
// compares every result with a single-process oracle run, migrates the last
// node's bank group onto server 1 over the mesh (verifying the transferred
// state and the NIC accounting), and finally shuts the peers down. A
// non-zero exit means the multi-process run diverged from single-process
// semantics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/emanager"
	"aeon/internal/ingress"
	"aeon/internal/node"
	"aeon/internal/ops"
	"aeon/internal/ownership"
	"aeon/internal/transport"
	"aeon/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aeon-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id         = flag.Int("id", 1, "this node's ID (also the server it embodies)")
		listen     = flag.String("listen", "", "listen address (defaults to this process's -peers entry)")
		peers      = flag.String("peers", "1=127.0.0.1:7101", "comma-separated id=host:port peer list (including this process; store servers as s<k>=host:port)")
		workloadF  = flag.String("workload", "bank", "workload to host (bank, or a scenario: iot, social)")
		accounts   = flag.Int("accounts", 4, "accounts per bank (bank workload)")
		balance    = flag.Int("balance", 1000, "initial balance per account")
		storeID    = flag.Int("store", 1, "node serving the authoritative cloud store (ignored with -store-parts)")
		storeParts = flag.Int("store-parts", 0, "partitions of the sharded store plane; partition p is served by the replica set s<3p+1>..s<3p+3> (boot primary first); 0 = single store node (-store)")
		serveStore = flag.Int("serve-store", 0, "run as dedicated store server k (mesh address s<k>) instead of an AEON node")
		storeBack  = flag.String("store-backend", "memory", "store server backend: memory, or disk:<dir> (only with -serve-store)")
		drive      = flag.Bool("drive", false, "drive the smoke workload against the deployment, then shut peers down")
		repl       = flag.Bool("replicate", true, "sequence runtime topology mutations through the replicated mutation log (dynamic topologies)")
		admin      = flag.String("admin", "", "serve the ops admin plane (/healthz, /metrics, /events, /debug/pprof) on host:port")
		adminPeers = flag.String("admin-peers", "", "comma-separated id=host:port peer admin addresses; with -drive, the smoke phase curls every one and verifies a cross-node trace")
	)
	flag.Parse()

	addrs, nodeCount, storeCount, err := parsePeers(*peers)
	if err != nil {
		return err
	}
	// Scenario workloads (internal/workload) rebuild deterministically on
	// every process, exactly like the bank: same flags, same IDs.
	var scen workload.Scenario
	if *workloadF != "bank" {
		scen, err = workload.NewScenario(*workloadF, nodeCount)
		if err != nil {
			return fmt.Errorf("unknown workload %q (have: bank, %v)",
				*workloadF, strings.Join(workload.ScenarioNames(), ", "))
		}
	}

	if *serveStore > 0 {
		return runStoreServer(addrs, *serveStore, *listen, *storeBack, *admin)
	}

	self := transport.NodeID(*id)
	if _, ok := addrs[self]; !ok && *listen == "" {
		return fmt.Errorf("node %d not in -peers and no -listen given", *id)
	}
	if *listen != "" {
		addrs[self] = *listen
	}
	if *storeParts > 0 && storeCount < node.StoreRF**storeParts {
		return fmt.Errorf("-store-parts %d needs %d store servers (s1..s%d) in -peers, have %d",
			*storeParts, node.StoreRF**storeParts, node.StoreRF**storeParts, storeCount)
	}

	// Deterministic replica: every process builds the same cluster and bank
	// topology, then embodies only its own server. Store servers host no
	// AEON servers, so they don't count toward the cluster.
	cl := cluster.New(transport.NewSim(transport.SimConfig{}))
	for i := 0; i < nodeCount; i++ {
		cl.AddServer(cluster.M3Large)
	}
	s := node.BankSchema()
	if scen != nil {
		s = scen.Schema()
	}
	if err := s.Freeze(); err != nil {
		return err
	}
	rtCfg := core.DefaultConfig()
	rtCfg.ChargeClientHops = false
	rt, err := core.New(s, ownership.NewGraph(), cl, rtCfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	var top *node.BankTopology
	if scen != nil {
		if err := scen.Build(rt); err != nil {
			return err
		}
	} else {
		top, err = node.BuildBank(rt, *accounts, *balance)
		if err != nil {
			return err
		}
	}

	mesh := transport.NewTCPMesh()
	for pid, addr := range addrs {
		mesh.Register(pid, addr)
	}
	var peerIDs []transport.NodeID
	for pid := range addrs {
		if pid < node.StoreIDBase {
			peerIDs = append(peerIDs, pid)
		}
	}
	cfg := node.Config{
		ID:         self,
		Runtime:    rt,
		LocalStore: cloudstore.New(),
		Manager:    emanager.DefaultConfig(),
		Replicate:  *repl,
		Peers:      peerIDs,
	}
	if *storeParts > 0 {
		// Same derivation on every process: partition p's replica set is
		// s(3p+1)..s(3p+3) — boot primary first, failover in epoch order.
		for p := 0; p < *storeParts; p++ {
			ids := make([]transport.NodeID, node.StoreRF)
			for r := 0; r < node.StoreRF; r++ {
				ids[r] = node.StoreIDBase + transport.NodeID(node.StoreRF*p+r+1)
			}
			cfg.StoreReplicas = append(cfg.StoreReplicas, node.StorePartition{Replicas: ids})
		}
	} else {
		cfg.StoreNode = transport.NodeID(*storeID)
	}
	var reg *ops.Registry
	if *admin != "" {
		reg = ops.NewRegistry(0)
		cfg.Ops = reg
	}
	n, err := node.Start(mesh, cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	if reg != nil {
		adm, err := ops.ServeAdmin(*admin, reg)
		if err != nil {
			return fmt.Errorf("-admin %s: %w", *admin, err)
		}
		defer adm.Close()
		fmt.Printf("aeon-node %d admin plane on http://%s\n", *id, adm.Addr())
	}
	if *storeParts > 0 {
		fmt.Printf("aeon-node %d listening on %s (%d-node deployment, %d-partition store plane)\n",
			*id, addrs[self], nodeCount, *storeParts)
	} else {
		fmt.Printf("aeon-node %d listening on %s (%d-node deployment, store on node %d)\n",
			*id, addrs[self], nodeCount, *storeID)
	}
	if p := n.Plane(); p != nil {
		if err := p.LastError(); err != nil {
			// Normal when the store node boots after this one (the tailer
			// keeps retrying); a persisting message means a wedged replica.
			fmt.Printf("aeon-node %d: replication catch-up pending: %v\n", *id, err)
		}
	}

	if *drive {
		if scen != nil {
			return runDriveScenario(n, scen, *workloadF, nodeCount, addrs)
		}
		return runDrive(n, mesh, top, addrs, *accounts, *balance, *repl, reg, *admin, *adminPeers)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-n.Done():
		fmt.Printf("aeon-node %d: shutdown requested by peer\n", *id)
	case <-sig:
		fmt.Printf("aeon-node %d: signal received\n", *id)
	}
	return nil
}

// runStoreServer runs this process as dedicated store server k: a mesh
// attachment at s<k> serving the cloud-store wire protocol from the given
// backend, until a peer sends shutdown or the process is signalled.
func runStoreServer(addrs map[transport.NodeID]string, k int, listen, backendSpec, admin string) error {
	self := node.StoreIDBase + transport.NodeID(k)
	if _, ok := addrs[self]; !ok && listen == "" {
		return fmt.Errorf("store server s%d not in -peers and no -listen given", k)
	}
	if listen != "" {
		addrs[self] = listen
	}
	be, err := cloudstore.Open(backendSpec)
	if err != nil {
		return fmt.Errorf("-store-backend %q: %w", backendSpec, err)
	}
	defer be.Close()

	mesh := transport.NewTCPMesh()
	for pid, addr := range addrs {
		mesh.Register(pid, addr)
	}
	srv, err := node.ServeStore(mesh, self, be)
	if err != nil {
		return err
	}
	defer srv.Close()
	if admin != "" {
		reg := ops.NewRegistry(0)
		srv.RegisterOps(reg)
		adm, err := ops.ServeAdmin(admin, reg)
		if err != nil {
			return fmt.Errorf("-admin %s: %w", admin, err)
		}
		defer adm.Close()
		fmt.Printf("aeon-node store server s%d admin plane on http://%s\n", k, adm.Addr())
	}
	fmt.Printf("aeon-node store server s%d listening on %s (backend %s)\n", k, addrs[self], backendSpec)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-srv.Done():
		fmt.Printf("aeon-node store server s%d: shutdown requested by peer\n", k)
	case <-sig:
		fmt.Printf("aeon-node store server s%d: signal received\n", k)
	}
	return nil
}

// parsePeers parses "1=host:port,2=host:port,s1=host:port". Plain entries
// are AEON nodes and must be contiguous 1..N; "s<k>" entries are store
// servers (mesh address StoreIDBase+k) and must be contiguous s1..sM.
func parsePeers(spec string) (addrs map[transport.NodeID]string, nodeCount, storeCount int, err error) {
	addrs = make(map[transport.NodeID]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, 0, 0, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		key, base := kv[0], transport.NodeID(0)
		if strings.HasPrefix(key, "s") {
			key, base = key[1:], node.StoreIDBase
		}
		pid, err := strconv.Atoi(key)
		if err != nil || pid <= 0 {
			return nil, 0, 0, fmt.Errorf("bad peer id %q", kv[0])
		}
		addrs[base+transport.NodeID(pid)] = kv[1]
		if base == 0 {
			nodeCount++
		} else {
			storeCount++
		}
	}
	for i := 1; i <= nodeCount; i++ {
		if _, ok := addrs[transport.NodeID(i)]; !ok {
			return nil, 0, 0, fmt.Errorf("peer IDs must be contiguous 1..%d (missing %d)", nodeCount, i)
		}
	}
	for i := 1; i <= storeCount; i++ {
		if _, ok := addrs[node.StoreIDBase+transport.NodeID(i)]; !ok {
			return nil, 0, 0, fmt.Errorf("store server IDs must be contiguous s1..s%d (missing s%d)", storeCount, i)
		}
	}
	return addrs, nodeCount, storeCount, nil
}

// awaitPeers names everything a driver talks to — this node's peers and the
// store servers, each sorted by ID — and waits until all of them answer a
// ping: peers (and store servers — they answer the same pings) may still be
// binding their listeners.
func awaitPeers(n *node.Node, addrs map[transport.NodeID]string) (peerIDs, storeIDs []transport.NodeID, err error) {
	for pid := range addrs {
		switch {
		case pid >= node.StoreIDBase:
			storeIDs = append(storeIDs, pid)
		case pid != n.ID():
			peerIDs = append(peerIDs, pid)
		}
	}
	slices.Sort(peerIDs)
	slices.Sort(storeIDs)

	deadline := time.Now().Add(15 * time.Second)
	for _, pid := range slices.Concat(peerIDs, storeIDs) {
		for {
			if err := n.Ping(pid); err == nil {
				break
			} else if time.Now().After(deadline) {
				return nil, nil, fmt.Errorf("peer %v never became reachable: %w", pid, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	fmt.Printf("drive: %d peers reachable (%d store servers)\n", len(peerIDs)+len(storeIDs), len(storeIDs))
	return peerIDs, storeIDs, nil
}

// shutdownPeers stops the fleet, nodes first and store servers last: a
// shutting-down node may still flush through the store plane. A lost
// shutdown ack only logs.
func shutdownPeers(n *node.Node, peerIDs, storeIDs []transport.NodeID) {
	for _, pid := range slices.Concat(peerIDs, storeIDs) {
		if err := n.Shutdown(pid); err != nil {
			fmt.Fprintf(os.Stderr, "drive: shutdown %v: %v\n", pid, err)
		}
	}
}

// runDrive is the smoke driver: wait for the peers, replay the bank script
// across the deployment, compare with the single-process oracle, migrate a
// remote bank group over the mesh, verify the transferred state, replay the
// dynamic-topology script (runtime context creation on every process,
// sequenced through the replicated mutation log), drive pipelined traffic
// from an external ingress client, and shut everything down.
func runDrive(n *node.Node, mesh transport.Mesh, top *node.BankTopology, addrs map[transport.NodeID]string, accounts, balance int, replicate bool, reg *ops.Registry, adminSelf, adminPeerSpec string) error {
	peerIDs, storeIDs, err := awaitPeers(n, addrs)
	if err != nil {
		return err
	}
	defer shutdownPeers(n, peerIDs, storeIDs)

	// Phase 1: the deterministic script, every op submitted at this node,
	// so every other bank's ops cross the mesh. Results must be identical
	// to a single-process run.
	got := node.RunBankScript(n.Submit, top)
	want, wantDynamic, err := node.BankDynamicOracle(len(top.Banks), accounts, balance)
	if err != nil {
		return err
	}
	if err := diffResults("script", got, want); err != nil {
		return err
	}
	fmt.Printf("drive: %d script results identical to single-process run\n", len(got))

	// Phase 2: live migration over the mesh — move the last node's bank
	// group onto this node's server and verify the state arrived.
	if len(peerIDs) > 0 {
		src := peerIDs[len(peerIDs)-1]
		bankIdx := int(src) - 1
		bank := top.Banks[bankIdx]
		preAudit, err := n.Submit(bank, "audit")
		if err != nil {
			return fmt.Errorf("pre-migration audit: %w", err)
		}
		if err := n.MigrateRemote(src, bank, cluster.ServerID(n.ID())); err != nil {
			return fmt.Errorf("commanded migration from node %v: %w", src, err)
		}
		fwdBefore := n.Forwarded()
		postAudit, err := n.Submit(bank, "audit")
		if err != nil {
			return fmt.Errorf("post-migration audit: %w", err)
		}
		if preAudit.(int) != postAudit.(int) {
			return fmt.Errorf("migration changed the audit total: %d → %d", preAudit, postAudit)
		}
		if n.Forwarded() != fwdBefore {
			return fmt.Errorf("post-migration audit still crossed the mesh")
		}
		srv, ok := n.Runtime().Cluster().Server(cluster.ServerID(n.ID()))
		if !ok || srv.TransferBytes() == 0 {
			return fmt.Errorf("no migration state bytes arrived over the mesh")
		}
		fmt.Printf("drive: migrated bank %v from node %v over the mesh (%d state bytes, audit total %d preserved)\n",
			bank, src, srv.TransferBytes(), postAudit)
	}

	// Phase 3: runtime topology churn — open a fresh account at every bank
	// (creations execute on whichever process hosts the bank, so every peer
	// captures mutations into the replicated log), deposit into the new
	// accounts by their returned IDs, and audit. Results — including the
	// log-assigned context IDs — must match the single-process oracle,
	// which pins fleet-wide ID-assignment determinism.
	if replicate {
		gotDynamic := node.RunBankDynamicScript(n.Submit, top)
		if err := diffResults("dynamic script", gotDynamic, wantDynamic); err != nil {
			return err
		}
		fmt.Printf("drive: %d runtime-topology results identical to single-process run (replication plane at seq %d)\n",
			len(gotDynamic), n.Plane().Applied())
	}

	// Phase 4: external ingress — a client outside the fleet attaches to the
	// mesh, pipelines deposits over multiplexed connections, and repairs its
	// routing cache from authoritative responses (including the route the
	// phase-2 migration made stale). Submits are traced, so phase 5 can find
	// the forwarding hops in the fleet's event feeds.
	if err := driveIngress(n, mesh, top, reg); err != nil {
		return fmt.Errorf("ingress: %w", err)
	}

	// Phase 5: admin-plane smoke — curl every admin endpoint in the fleet
	// (liveness, Prometheus exposition, event feed) and verify at least one
	// trace from phase 4 shows spans on two or more forwarding hops.
	if adminSelf != "" || adminPeerSpec != "" {
		if err := driveAdminSmoke(adminSelf, adminPeerSpec); err != nil {
			return fmt.Errorf("admin smoke: %w", err)
		}
	}

	fmt.Println("drive: OK")
	return nil
}

// runDriveScenario replays a scenario workload's deterministic script at
// this node — every op targeting a peer-hosted context crosses the mesh —
// and diffs the transcript against the single-process oracle, then shuts
// the fleet down. The node layer must be semantically invisible.
func runDriveScenario(n *node.Node, scen workload.Scenario, name string, servers int, addrs map[transport.NodeID]string) error {
	peerIDs, storeIDs, err := awaitPeers(n, addrs)
	if err != nil {
		return err
	}
	defer shutdownPeers(n, peerIDs, storeIDs)
	got := scen.Script(n.Submit)
	want, err := workload.Oracle(name, servers)
	if err != nil {
		return err
	}
	if err := diffResults(name+" script", got, want); err != nil {
		return err
	}
	fmt.Printf("drive: %d %s script results identical to single-process run\n", len(got), name)
	fmt.Println("drive: OK")
	return nil
}

// driveIngress verifies the client SDK against the live deployment:
// pipelined deposits from outside the fleet land exactly once (audit deltas
// match), and the client's dominator→node cache converges to the true hosts.
func driveIngress(n *node.Node, mesh transport.Mesh, top *node.BankTopology, reg *ops.Registry) error {
	var fleet []transport.NodeID
	for i := range top.Banks {
		fleet = append(fleet, transport.NodeID(i+1))
	}
	cli, err := ingress.Dial(mesh, ingress.Config{Nodes: fleet, Trace: true})
	if err != nil {
		return err
	}
	defer cli.Close()
	if reg != nil {
		cli.RegisterOps(reg)
	}

	before := make([]int, len(top.Banks))
	for i, bank := range top.Banks {
		audit, err := cli.Submit(bank, "audit")
		if err != nil {
			return fmt.Errorf("pre audit bank %d: %w", i+1, err)
		}
		before[i] = audit.(int)
	}

	const perAccount = 25
	start := time.Now()
	var futures []*ingress.Future
	for _, bankAccounts := range top.Accounts {
		for _, acct := range bankAccounts {
			for k := 0; k < perAccount; k++ {
				futures = append(futures, cli.Go(acct, "deposit", 1))
			}
		}
	}
	for _, f := range futures {
		if _, err := f.Wait(); err != nil {
			return fmt.Errorf("pipelined deposit: %w", err)
		}
	}
	elapsed := time.Since(start)

	for i, bank := range top.Banks {
		audit, err := cli.Submit(bank, "audit")
		if err != nil {
			return fmt.Errorf("post audit bank %d: %w", i+1, err)
		}
		if want := before[i] + perAccount*len(top.Accounts[i]); audit.(int) != want {
			return fmt.Errorf("bank %d audit = %d after pipelined deposits, want %d", i+1, audit, want)
		}
	}
	// The cache must agree with the fleet's directory — including the bank
	// the phase-2 migration moved onto this node.
	for i, bank := range top.Banks {
		host, _ := n.Runtime().Directory().Locate(bank)
		if cached, ok := cli.Route(bank); !ok || cached != transport.NodeID(host) {
			return fmt.Errorf("client route for bank %d = %v (ok=%v), directory says %v", i+1, cached, ok, host)
		}
	}
	fmt.Printf("drive: ingress client pipelined %d deposits in %v (%.0f ev/s), audits and routes converged\n",
		len(futures), elapsed.Round(time.Millisecond), float64(len(futures))/elapsed.Seconds())
	return nil
}

// adminFamilies are the metric families every node's admin plane exports.
var adminFamilies = []string{"aeon_node_submits_executed_total", "aeon_activation_waits_total"}

// driveAdminSmoke exercises the ops plane across the fleet: every admin
// endpoint (this process's plus every -admin-peers entry) must report
// healthy, serve Prometheus-parseable metrics exporting every family in
// adminFamilies, and serve its event feed. Fleet-wide, the executed-submit
// counters must be nonzero after the drive, and at least one phase-4 trace
// must appear with spans on ≥2 forwarding hops — proving trace IDs survive
// the hot codec and cross-node forwarding.
func driveAdminSmoke(adminSelf, adminPeerSpec string) error {
	urls := map[string]string{}
	if adminSelf != "" {
		urls["self"] = "http://" + adminSelf
	}
	for _, part := range strings.Split(adminPeerSpec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -admin-peers entry %q (want id=host:port)", part)
		}
		urls[kv[0]] = "http://" + kv[1]
	}
	if len(urls) == 0 {
		return nil
	}

	httpc := &http.Client{Timeout: 5 * time.Second}
	get := func(url string) ([]byte, error) {
		resp, err := httpc.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, body)
		}
		return body, nil
	}

	var executed float64
	traceHops := map[string]map[int]bool{}
	for name, base := range urls {
		body, err := get(base + "/healthz")
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var health struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &health); err != nil || health.Status != "ok" {
			return fmt.Errorf("%s /healthz degraded: %s", name, body)
		}

		body, err = get(base + "/metrics")
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		exported := map[string]bool{}
		for _, line := range strings.Split(string(body), "\n") {
			family, value, _ := strings.Cut(line, " ")
			exported[family] = true
			if family == "aeon_node_submits_executed_total" {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					return fmt.Errorf("%s: unparseable metric line %q", name, line)
				}
				executed += v
			}
		}
		for _, family := range adminFamilies {
			if !exported[family] {
				return fmt.Errorf("%s /metrics exports no %s", name, family)
			}
		}

		body, err = get(base + "/events")
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if line == "" {
				continue
			}
			var ev struct {
				Type   string         `json:"type"`
				Fields map[string]any `json:"fields"`
			}
			if json.Unmarshal([]byte(line), &ev) != nil || ev.Type != "trace.span" {
				continue
			}
			tr, _ := ev.Fields["trace"].(string)
			hop, ok := ev.Fields["hop"].(float64)
			if tr == "" || !ok {
				continue
			}
			if traceHops[tr] == nil {
				traceHops[tr] = map[int]bool{}
			}
			traceHops[tr][int(hop)] = true
		}
	}
	if executed == 0 {
		return fmt.Errorf("fleet-wide executed-submit counters are all zero after the drive")
	}
	multiHop := 0
	for _, hops := range traceHops {
		if len(hops) >= 2 {
			multiHop++
		}
	}
	if multiHop == 0 {
		return fmt.Errorf("no trace spanned >=2 hops across the fleet (%d traces seen)", len(traceHops))
	}
	fmt.Printf("drive: admin smoke OK — %d endpoints healthy, %.0f submits executed fleet-wide, %d traces spanned >=2 hops\n",
		len(urls), executed, multiHop)
	return nil
}

// diffResults compares a deployment's outcome stream with the oracle's.
func diffResults(phase string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s result counts differ: %d vs %d", phase, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s result %d diverged: multi-process=%q single-process=%q", phase, i, got[i], want[i])
		}
	}
	return nil
}
