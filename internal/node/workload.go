package node

// The deterministic bank workload hosted by multi-process deployments: one
// Bank context per server, each owning a row of Account contexts, built in
// the same order on every node so context IDs and placements agree across
// processes without any coordination. It is the quickstart example's schema,
// made reproducible enough to serve as the node smoke/bench workload.

import (
	"errors"
	"fmt"

	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// BankAccount is the account state; exported (and wire-registered) so it
// can ride migration state transfer and checkpoints across processes.
type BankAccount struct {
	Balance int
}

func init() {
	schema.RegisterWireType(&BankAccount{})
}

// ErrInsufficientFunds is returned by withdraw/transfer when the source
// account cannot cover the amount.
var ErrInsufficientFunds = errors.New("bank: insufficient funds")

// BankSchema declares the bank contextclasses (quickstart's schema): Bank
// owns Accounts; transfer atomically moves money, audit is a readonly sweep.
func BankSchema() *schema.Schema {
	s := schema.New()
	acc := s.MustDeclareClass("Account", func() any { return &BankAccount{} })
	acc.MustDeclareMethod("deposit", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*BankAccount)
		st.Balance += args[0].Int()
		return schema.Int(st.Balance), nil
	})
	acc.MustDeclareMethod("withdraw", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*BankAccount)
		amt := args[0].Int()
		if amt > st.Balance {
			return schema.Value{}, ErrInsufficientFunds
		}
		st.Balance -= amt
		return schema.Int(st.Balance), nil
	})
	acc.MustDeclareMethod("balance", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Int(call.State().(*BankAccount).Balance), nil
	}, schema.RO())

	bank := s.MustDeclareClass("Bank", nil)
	bank.MustDeclareMethod("open", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		// Runtime topology mutation: create a fresh account owned by this
		// bank and seed it. In a replicated deployment the creation is
		// sequenced through the fleet-wide mutation log on whichever node
		// executes this event, so the returned ID is immediately
		// submittable from every other node.
		id, err := call.NewContext("Account", call.Self())
		if err != nil {
			return schema.Value{}, err
		}
		if args[0].Int() != 0 {
			if _, err := call.Sync(id, "deposit", args[0]); err != nil {
				return schema.Value{}, err
			}
		}
		return schema.ID(id), nil
	}, schema.MayCall("Account", "deposit"))
	bank.MustDeclareMethod("transfer", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		from, to, amt := args[0].ID(), args[1].ID(), args[2]
		if _, err := call.Sync(from, "withdraw", amt); err != nil {
			return schema.Value{}, err
		}
		return call.Sync(to, "deposit", amt)
	}, schema.MayCall("Account", "withdraw"), schema.MayCall("Account", "deposit"))
	bank.MustDeclareMethod("audit", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		accounts, err := call.Children("Account")
		if err != nil {
			return schema.Value{}, err
		}
		total := 0
		for _, a := range accounts {
			b, err := call.Sync(a, "balance")
			if err != nil {
				return schema.Value{}, err
			}
			total += b.Int()
		}
		return schema.Int(total), nil
	}, schema.RO(), schema.MayCall("Account", "balance"))
	return s
}

// BankTopology records the deterministic placement of the bank workload.
type BankTopology struct {
	// Banks[i] is the Bank placed on server i+1.
	Banks []ownership.ID
	// Accounts[i] are Banks[i]'s accounts, in creation order.
	Accounts [][]ownership.ID
}

// BuildBank populates rt with one Bank per cluster server, each owning
// accountsPerBank accounts seeded with initialBalance. Creation order is
// fixed (server order, then account index), so every node that runs it
// against an identically built cluster derives identical context IDs —
// the agreement multi-process routing relies on.
func BuildBank(rt *core.Runtime, accountsPerBank, initialBalance int) (*BankTopology, error) {
	top := &BankTopology{}
	for _, srv := range rt.Cluster().Servers() {
		bankID, err := rt.CreateContextOn(srv.ID(), "Bank")
		if err != nil {
			return nil, fmt.Errorf("bank on %v: %w", srv.ID(), err)
		}
		accounts := make([]ownership.ID, 0, accountsPerBank)
		for i := 0; i < accountsPerBank; i++ {
			a, err := rt.CreateContextOn(srv.ID(), "Account", bankID)
			if err != nil {
				return nil, fmt.Errorf("account %d on %v: %w", i, srv.ID(), err)
			}
			if initialBalance != 0 {
				if c, err := rt.Context(a); err == nil {
					c.SetState(&BankAccount{Balance: initialBalance})
				}
			}
			accounts = append(accounts, a)
		}
		top.Banks = append(top.Banks, bankID)
		top.Accounts = append(top.Accounts, accounts)
	}
	return top, nil
}

// SubmitFunc abstracts "submit an event" over node deployments and plain
// runtimes, so the same script drives both.
type SubmitFunc func(target ownership.ID, method string, args ...any) (any, error)

// RunBankScript replays one deterministic op sequence against the bank
// topology — deposits to every account (cross-bank, so submits from one
// node cross the mesh), an in-bank transfer, a failing transfer, and a
// final audit per bank — recording every outcome as a printable string. The
// multi-process smoke driver compares its output against a single-process
// run of the same script: the node layer must be semantically invisible.
func RunBankScript(submit SubmitFunc, top *BankTopology) []string {
	var out []string
	rec := func(v any, err error) {
		if err != nil {
			out = append(out, "err:"+err.Error())
		} else {
			out = append(out, fmt.Sprintf("%v", v))
		}
	}
	for b := range top.Banks {
		for i, acct := range top.Accounts[b] {
			rec(submit(acct, "deposit", 10*(b+1)+i))
		}
	}
	if len(top.Banks) > 0 && len(top.Accounts[0]) > 1 {
		rec(submit(top.Banks[0], "transfer", top.Accounts[0][0], top.Accounts[0][1], 30))
	}
	if len(top.Banks) > 1 && len(top.Accounts[1]) > 1 {
		rec(submit(top.Banks[1], "transfer", top.Accounts[1][0], top.Accounts[1][1], 1<<30)) // insufficient funds
	}
	for b := range top.Banks {
		rec(submit(top.Banks[b], "audit"))
	}
	return out
}

// RunBankDynamicScript replays one deterministic runtime-topology-churn
// sequence: open a fresh account at every bank (the creation executes on
// whichever node hosts the bank, so a multi-process driver exercises
// context creation from several processes), deposit into each new account
// by its returned ID, then audit every bank. Outcomes include the created
// context IDs, so diffing against a single-process run pins log-order ID
// assignment, not just balances.
func RunBankDynamicScript(submit SubmitFunc, top *BankTopology) []string {
	var out []string
	rec := func(v any, err error) {
		if err != nil {
			out = append(out, "err:"+err.Error())
		} else {
			out = append(out, fmt.Sprintf("%v", v))
		}
	}
	var opened []ownership.ID
	for b := range top.Banks {
		v, err := submit(top.Banks[b], "open", 100*(b+1))
		rec(v, err)
		if id, ok := v.(ownership.ID); err == nil && ok {
			opened = append(opened, id)
		}
	}
	for i, id := range opened {
		rec(submit(id, "deposit", 7*(i+1)))
	}
	for b := range top.Banks {
		rec(submit(top.Banks[b], "audit"))
	}
	return out
}

// BankDynamicOracle replays the static script and then the dynamic
// (topology-churn) script on a fresh single-process runtime and returns
// both outcome slices. A replicated multi-process deployment that drives
// the same two scripts in the same order must produce identical outcomes —
// including the runtime-created context IDs, since sequential submission
// makes log order equal submission order.
func BankDynamicOracle(nodes, accountsPerBank, initialBalance int) (static, dynamic []string, err error) {
	cl := cluster.New(transport.NewSim(transport.SimConfig{}))
	for i := 0; i < nodes; i++ {
		cl.AddServer(cluster.M3Large)
	}
	s := BankSchema()
	if err := s.Freeze(); err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.ChargeClientHops = false
	rt, err := core.New(s, ownership.NewGraph(), cl, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer rt.Close()
	top, err := BuildBank(rt, accountsPerBank, initialBalance)
	if err != nil {
		return nil, nil, err
	}
	return RunBankScript(rt.Submit, top), RunBankDynamicScript(rt.Submit, top), nil
}
