package aeon_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"aeon"
)

// bankState and accountState exercise the public API end to end.
type accountState struct {
	Balance int
}

func bankSchema(t *testing.T) *aeon.Schema {
	t.Helper()
	s := aeon.NewSchema()
	account := s.MustDeclareClass("Account", func() any { return &accountState{} })
	account.MustDeclareMethod("deposit", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*accountState)
		st.Balance += args[0].Int()
		return aeon.Int(st.Balance), nil
	})
	account.MustDeclareMethod("withdraw", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*accountState)
		amt := args[0].Int()
		if amt > st.Balance {
			return aeon.Value{}, errors.New("insufficient funds")
		}
		st.Balance -= amt
		return aeon.Int(st.Balance), nil
	})
	account.MustDeclareMethod("balance", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		return aeon.Int(call.State().(*accountState).Balance), nil
	}, aeon.RO())

	bank := s.MustDeclareClass("Bank", nil)
	bank.MustDeclareMethod("transfer", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		from := args[0].ID()
		to := args[1].ID()
		amt := args[2].Int()
		if _, err := call.Sync(from, "withdraw", aeon.Int(amt)); err != nil {
			return aeon.Value{}, err
		}
		return call.Sync(to, "deposit", aeon.Int(amt))
	}, aeon.MayCall("Account", "withdraw"), aeon.MayCall("Account", "deposit"))
	bank.MustDeclareMethod("audit", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		accounts, err := call.Children("Account")
		if err != nil {
			return aeon.Value{}, err
		}
		total := 0
		for _, a := range accounts {
			b, err := call.Sync(a, "balance")
			if err != nil {
				return aeon.Value{}, err
			}
			total += b.Int()
		}
		return aeon.Int(total), nil
	}, aeon.RO(), aeon.MayCall("Account", "balance"))
	return s
}

func newBank(t *testing.T) (*aeon.System, aeon.ContextID, []aeon.ContextID) {
	t.Helper()
	sys, err := aeon.New(
		aeon.WithSchema(bankSchema(t)),
		aeon.WithServers(2, aeon.M3Large),
		aeon.WithNetwork(aeon.SimNetworkConfig{}), // zero-latency for tests
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	bank, err := sys.Runtime.CreateContext("Bank")
	if err != nil {
		t.Fatal(err)
	}
	var accounts []aeon.ContextID
	for i := 0; i < 4; i++ {
		a, err := sys.Runtime.CreateContext("Account", bank)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Runtime.Submit(a, "deposit", 1000); err != nil {
			t.Fatal(err)
		}
		accounts = append(accounts, a)
	}
	return sys, bank, accounts
}

func TestPublicAPIQuickstart(t *testing.T) {
	sys, bank, accounts := newBank(t)
	if _, err := sys.Runtime.Submit(bank, "transfer", accounts[0], accounts[1], 250); err != nil {
		t.Fatal(err)
	}
	b0, _ := sys.Runtime.Submit(accounts[0], "balance")
	b1, _ := sys.Runtime.Submit(accounts[1], "balance")
	if b0.(int) != 750 || b1.(int) != 1250 {
		t.Fatalf("balances = %v, %v; want 750, 1250", b0, b1)
	}
}

func TestPublicAPIConservationUnderConcurrency(t *testing.T) {
	sys, bank, accounts := newBank(t)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				from := accounts[(c+i)%len(accounts)]
				to := accounts[(c+i+1)%len(accounts)]
				_, err := sys.Runtime.Submit(bank, "transfer", from, to, 1)
				if err != nil && err.Error() != "insufficient funds" {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total, err := sys.Runtime.Submit(bank, "audit")
	if err != nil {
		t.Fatal(err)
	}
	if total.(int) != 4000 {
		t.Fatalf("audit total = %v; want 4000", total)
	}
}

func TestPublicAPIMigration(t *testing.T) {
	sys, _, accounts := newBank(t)
	from, _ := sys.Runtime.Directory().Locate(accounts[0])
	var to aeon.ServerID
	for _, s := range sys.Cluster.Servers() {
		if s.ID() != from {
			to = s.ID()
		}
	}
	if err := sys.Manager.Migrate(accounts[0], to); err != nil {
		t.Fatal(err)
	}
	b, err := sys.Runtime.Submit(accounts[0], "balance")
	if err != nil {
		t.Fatal(err)
	}
	if b.(int) != 1000 {
		t.Fatalf("balance after migration = %v", b)
	}
}

func TestPublicAPIElasticity(t *testing.T) {
	sys, _, _ := newBank(t)
	sys.Manager.AddConstraint(aeon.MaxServers(3))
	sys.Manager.AddPolicy(&aeon.SLAPolicy{
		Target:   time.Nanosecond, // always in breach: forces a scale-out
		Profile:  aeon.M1Small,
		Cooldown: time.Nanosecond,
	})
	// One breach observation is needed before the policy fires.
	sys.Manager.Evaluate()
	if n := sys.Cluster.Size(); n != 3 {
		t.Fatalf("cluster size = %d; want 3 after scale-out", n)
	}
	// Constraint holds the line.
	sys.Manager.Evaluate()
	if n := sys.Cluster.Size(); n != 3 {
		t.Fatalf("cluster size = %d; want 3 (MaxServers)", n)
	}
}

func TestSchemaValidationThroughPublicAPI(t *testing.T) {
	s := aeon.NewSchema()
	a := s.MustDeclareClass("A", nil)
	b := s.MustDeclareClass("B", nil)
	a.MustDeclareMethod("m", nil, aeon.MayAccess("B"))
	b.MustDeclareMethod("m", nil, aeon.MayAccess("A"))
	if _, err := aeon.New(aeon.WithSchema(s)); err == nil {
		t.Fatal("cyclic contextclass constraints must be rejected")
	}
}
