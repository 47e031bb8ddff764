package aeon_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aeon"
	"aeon/internal/emanager"
	"aeon/internal/schema"
)

// TestIntegrationFullLifecycle exercises the whole stack through the public
// API: deploy, load, policy-driven scale-out, migration under load,
// consistent snapshot, simulated eManager hand-over, server failure
// recovery, and scale-in — with an application invariant (conserved total)
// checked throughout.
func TestIntegrationFullLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	schema.RegisterWireType(&accountState{})

	sys, err := aeon.New(
		aeon.WithSchema(bankSchema(t)),
		aeon.WithServers(2, aeon.M3Large),
		aeon.WithNetwork(aeon.SimNetworkConfig{BaseLatency: 50 * time.Microsecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rt := sys.Runtime

	// Deploy: 4 banks, each owning 8 accounts, spread over the servers.
	const nBanks, nAccounts, seedMoney = 4, 8, 1000
	banks := make([]aeon.ContextID, nBanks)
	accounts := make(map[aeon.ContextID][]aeon.ContextID, nBanks)
	servers := sys.Cluster.Servers()
	for i := range banks {
		b, err := rt.CreateContextOn(servers[i%len(servers)].ID(), "Bank")
		if err != nil {
			t.Fatal(err)
		}
		banks[i] = b
		for j := 0; j < nAccounts; j++ {
			a, err := rt.CreateContext("Account", b)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Submit(a, "deposit", seedMoney); err != nil {
				t.Fatal(err)
			}
			accounts[b] = append(accounts[b], a)
		}
	}
	auditAll := func() int {
		total := 0
		for _, b := range banks {
			res, err := rt.Submit(b, "audit")
			if err != nil {
				t.Fatalf("audit: %v", err)
			}
			total += res.(int)
		}
		return total
	}
	want := nBanks * nAccounts * seedMoney
	if got := auditAll(); got != want {
		t.Fatalf("seed audit = %d; want %d", got, want)
	}

	// Background load across all banks.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := banks[rng.Intn(nBanks)]
				accs := accounts[b]
				from := accs[rng.Intn(len(accs))]
				to := accs[rng.Intn(len(accs))]
				if from == to {
					continue
				}
				if _, err := rt.Submit(b, "transfer", from, to, rng.Intn(20)); err != nil &&
					err.Error() != "insufficient funds" {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(int64(c + 1))
	}

	// Policy-driven scale-out via the DSL.
	policy, err := aeon.CompilePolicy(fmt.Sprintf(`
when latency > %v add server m3.large
max servers 4
cooldown 1ns
`, time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	sys.Manager.AddPolicy(policy)
	sys.Manager.Evaluate()
	sys.Manager.Evaluate()
	if n := sys.Cluster.Size(); n < 3 {
		t.Fatalf("cluster size = %d; want scale-out", n)
	}

	// Migrate a bank (and its accounts) under load.
	from, _ := rt.Directory().Locate(banks[0])
	var to aeon.ServerID
	for _, s := range sys.Cluster.Servers() {
		if s.ID() != from {
			to = s.ID()
			break
		}
	}
	if err := sys.Manager.MigrateGroup(banks[0], to); err != nil {
		t.Fatalf("migrate group: %v", err)
	}
	for _, a := range accounts[banks[0]] {
		if srv, _ := rt.Directory().Locate(a); srv != to {
			t.Fatalf("account %v not co-migrated (on %v; want %v)", a, srv, to)
		}
	}

	// Consistent snapshot of a live bank.
	key, n, err := sys.Manager.Snapshot(banks[1])
	if err != nil {
		t.Fatal(err)
	}
	if n != nAccounts {
		t.Fatalf("snapshot captured %d contexts; want %d", n, nAccounts)
	}
	states, err := sys.Manager.LoadSnapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	snapTotal := 0
	for id, st := range states {
		if id == banks[1] {
			continue
		}
		snapTotal += st.(*accountState).Balance
	}
	if snapTotal != nAccounts*seedMoney {
		t.Fatalf("snapshot total = %d; want %d (consistent cut)", snapTotal, nAccounts*seedMoney)
	}

	// eManager hand-over: a second manager over the same store can operate.
	mgr2 := emanager.New(rt, sys.Store, emanager.DefaultConfig())
	if err := mgr2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}

	close(stop)
	wg.Wait()

	if got := auditAll(); got != want {
		t.Fatalf("final audit = %d; want %d (conservation through scale-out, migration, snapshot)", got, want)
	}

	// Server failure: checkpoint then lose a server; invariant restored
	// from the checkpoints.
	victimSrv := sys.Cluster.Servers()[0].ID()
	if _, err := sys.Manager.CheckpointServer(victimSrv); err != nil {
		t.Fatal(err)
	}
	report, err := sys.Manager.RecoverServerFailure(victimSrv)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Lost) == 0 {
		t.Fatal("victim hosted nothing; test setup broken")
	}
	if got := auditAll(); got != want {
		t.Fatalf("post-failure audit = %d; want %d", got, want)
	}
}
