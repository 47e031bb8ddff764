// Quickstart: a bank built on AEON's public API.
//
// A Bank context owns Account contexts; the `transfer` event atomically
// moves money between two accounts, and the readonly `audit` event sums all
// balances. AEON guarantees strict serializability, so concurrent transfers
// never lose money and audits never observe a half-applied transfer — with
// no locking in the application code.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"aeon"
)

type account struct {
	Balance int
}

func buildSchema() *aeon.Schema {
	s := aeon.NewSchema()

	acc := s.MustDeclareClass("Account", func() any { return &account{} })
	acc.MustDeclareMethod("deposit", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*account)
		st.Balance += args[0].Int()
		return aeon.Int(st.Balance), nil
	})
	acc.MustDeclareMethod("withdraw", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		st := call.State().(*account)
		amt := args[0].Int()
		if amt > st.Balance {
			return aeon.Value{}, errors.New("insufficient funds")
		}
		st.Balance -= amt
		return aeon.Int(st.Balance), nil
	})
	acc.MustDeclareMethod("balance", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		return aeon.Int(call.State().(*account).Balance), nil
	}, aeon.RO())

	bank := s.MustDeclareClass("Bank", nil)
	bank.MustDeclareMethod("transfer", func(call aeon.Call, args []aeon.Value) (aeon.Value, error) {
		from, to, amt := args[0].ID(), args[1].ID(), args[2]
		if _, err := call.Sync(from, "withdraw", amt); err != nil {
			return aeon.Value{}, err
		}
		return call.Sync(to, "deposit", amt)
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

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := aeon.New(
		aeon.WithSchema(buildSchema()),
		aeon.WithServers(4, aeon.M3Large),
	)
	if err != nil {
		return err
	}
	defer sys.Close()

	bank, err := sys.Runtime.CreateContext("Bank")
	if err != nil {
		return err
	}
	const nAccounts = 16
	accounts := make([]aeon.ContextID, 0, nAccounts)
	for i := 0; i < nAccounts; i++ {
		a, err := sys.Runtime.CreateContext("Account", bank)
		if err != nil {
			return err
		}
		if _, err := sys.Runtime.Submit(a, "deposit", 1000); err != nil {
			return err
		}
		accounts = append(accounts, a)
	}
	fmt.Printf("created bank with %d accounts of 1000 each\n", nAccounts)

	// 16 concurrent clients hammer random transfers while audits run.
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				from := accounts[rng.Intn(len(accounts))]
				to := accounts[rng.Intn(len(accounts))]
				if from == to {
					continue
				}
				_, err := sys.Runtime.Submit(bank, "transfer", from, to, rng.Intn(50))
				if err != nil && err.Error() != "insufficient funds" {
					log.Printf("transfer failed: %v", err)
				}
			}
		}(int64(c + 1))
	}
	auditDone := make(chan struct{})
	go func() {
		defer close(auditDone)
		for i := 0; i < 20; i++ {
			total, err := sys.Runtime.Submit(bank, "audit")
			if err != nil {
				log.Printf("audit failed: %v", err)
				return
			}
			if total.(int) != nAccounts*1000 {
				log.Printf("AUDIT VIOLATION: total = %d", total)
				return
			}
		}
	}()
	wg.Wait()
	<-auditDone

	total, err := sys.Runtime.Submit(bank, "audit")
	if err != nil {
		return err
	}
	fmt.Printf("after 1600 concurrent transfers: audit total = %d (money conserved: %v)\n",
		total, total.(int) == nAccounts*1000)
	fmt.Printf("events completed: %d, mean latency: %v\n",
		sys.Runtime.Completed(), sys.Runtime.Latency.Snapshot().Mean)
	return nil
}
