package tpcc

import (
	"fmt"
	"math/rand"
	"sync"

	"aeon/internal/cluster"
	"aeon/internal/orleans"
	"aeon/internal/schema"
)

// OrleansApp is TPC-C on the Orleans baseline, in two variants (§ 6.1.2):
//
//   - "Orleans": strict serializability by orchestrating the grains in a
//     tree-like structure à la EventWave — every transaction takes an
//     application-level lock on the Warehouse grain, serializing globally.
//   - "Orleans*": grains called directly with no cross-grain
//     synchronization; TPC-C invariants can break, but it serves as
//     Orleans' best case.
type OrleansApp struct {
	cfg    Config
	rt     *orleans.Runtime
	unsafe bool

	warehouse orleans.GrainID
	districts []orleans.GrainID
	customers [][]orleans.GrainID
}

var _ App = (*OrleansApp)(nil)

// whGrainState is the Warehouse grain state, including the global
// application-level lock of the serializable variant.
type whGrainState struct {
	YTD      int
	Stock    []int
	lockHeld bool
	waiters  []*orleans.Deferred
}

// dGrainState is the District grain state.
type dGrainState struct {
	YTD           int
	NextOID       int
	PendingOrders []orleans.GrainID
	RecentItems   []int
}

// cGrainState is the Customer grain state.
type cGrainState struct {
	Balance    int
	YTDPayment int
	Payments   int
	LastOrder  orleans.GrainID
	Delivered  int
}

// oGrainState is an Order grain's state.
type oGrainState struct {
	mu        sync.Mutex // Orleans* can race order creation vs delivery
	OID       int
	Lines     []OrderLine
	Total     int
	Delivered bool
}

// BuildOrleans deploys TPC-C on an Orleans runtime; unsafe selects Orleans*.
func BuildOrleans(cl *cluster.Cluster, cfg Config, unsafe bool) (*OrleansApp, error) {
	rt := orleans.New(cl, orleans.DefaultConfig())
	app := &OrleansApp{cfg: cfg, rt: rt, unsafe: unsafe}
	if err := app.declare(); err != nil {
		rt.Close()
		return nil, err
	}
	if err := app.deploy(); err != nil {
		rt.Close()
		return nil, err
	}
	return app, nil
}

func (a *OrleansApp) declare() error {
	rt := a.rt
	cfg := a.cfg
	cost := cfg.StepCost

	if err := rt.RegisterClass(&orleans.Class{Name: "Warehouse", New: func() any {
		st := &whGrainState{Stock: make([]int, cfg.Items)}
		for i := range st.Stock {
			st.Stock[i] = 100
		}
		return st
	}}); err != nil {
		return err
	}
	if err := rt.RegisterClass(&orleans.Class{Name: "District", New: func() any { return &dGrainState{} }}); err != nil {
		return err
	}
	if err := rt.RegisterClass(&orleans.Class{Name: "Customer", New: func() any { return &cGrainState{} }}); err != nil {
		return err
	}
	if err := rt.RegisterClass(&orleans.Class{Name: "Order", New: func() any { return &oGrainState{} }}); err != nil {
		return err
	}

	decl := func(class, name string, h orleans.Handler) error {
		return rt.DeclareMethod(class, name, cost, h)
	}

	// Warehouse lock for the serializable variant.
	if err := rt.DeclareMethod("Warehouse", "lock", 0, func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*whGrainState)
		if !st.lockHeld {
			st.lockHeld = true
			return schema.Of(true), nil
		}
		st.waiters = append(st.waiters, call.DeferReply())
		return schema.Value{}, nil
	}); err != nil {
		return err
	}
	if err := rt.DeclareMethod("Warehouse", "unlock", 0, func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*whGrainState)
		if len(st.waiters) > 0 {
			next := st.waiters[0]
			st.waiters = st.waiters[1:]
			next.Resolve(schema.Of(true), nil)
		} else {
			st.lockHeld = false
		}
		return schema.Value{}, nil
	}); err != nil {
		return err
	}

	if err := decl("Warehouse", "reserve_stock", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*whGrainState)
		for _, l := range args[0].Any().([]OrderLine) {
			if st.Stock[l.Item] < l.Qty {
				st.Stock[l.Item] += 100
			}
			st.Stock[l.Item] -= l.Qty
		}
		return schema.Value{}, nil
	}); err != nil {
		return err
	}
	if err := decl("Warehouse", "pay_ytd", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*whGrainState)
		st.YTD += args[0].Int()
		return schema.Value{}, nil
	}); err != nil {
		return err
	}
	if err := decl("Warehouse", "stock_level", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*whGrainState)
		low := 0
		for _, it := range args[0].Any().([]int) {
			if st.Stock[it] < 15 {
				low++
			}
		}
		return schema.Int(low), nil
	}); err != nil {
		return err
	}

	if err := decl("Order", "fill", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*oGrainState)
		st.mu.Lock()
		defer st.mu.Unlock()
		st.OID = args[0].Int()
		st.Lines = args[1].Any().([]OrderLine)
		for _, l := range st.Lines {
			st.Total += l.Amount
		}
		return schema.Value{}, nil
	}); err != nil {
		return err
	}
	if err := decl("Order", "mark_delivered", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*oGrainState)
		st.mu.Lock()
		defer st.mu.Unlock()
		st.Delivered = true
		return schema.Int(st.Total), nil
	}); err != nil {
		return err
	}

	if err := decl("Customer", "place_order", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		ord, err := a.rt.CreateGrain("Order")
		if err != nil {
			return schema.Value{}, err
		}
		if _, err := call.Call(ord, "fill", args[0], args[1]); err != nil {
			return schema.Value{}, err
		}
		st := call.State().(*cGrainState)
		st.LastOrder = ord
		return schema.Of(ord), nil
	}); err != nil {
		return err
	}
	if err := decl("Customer", "pay", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*cGrainState)
		amt := args[0].Int()
		st.Balance -= amt
		st.YTDPayment += amt
		st.Payments++
		return schema.Int(st.Balance), nil
	}); err != nil {
		return err
	}
	if err := decl("Customer", "order_status", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*cGrainState)
		return schema.Of(st.LastOrder), nil
	}); err != nil {
		return err
	}
	if err := decl("Customer", "credit_delivery", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*cGrainState)
		st.Balance += args[0].Int()
		st.Delivered++
		return schema.Value{}, nil
	}); err != nil {
		return err
	}

	if err := decl("District", "new_order", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*dGrainState)
		wh := args[0].Any().(orleans.GrainID)
		cust := args[1].Any().(orleans.GrainID)
		lines := args[2].Any().([]OrderLine)
		if _, err := call.Call(wh, "reserve_stock", schema.Of(lines)); err != nil {
			return schema.Value{}, err
		}
		st.NextOID++
		st.RecentItems = st.RecentItems[:0]
		for _, l := range lines {
			st.RecentItems = append(st.RecentItems, l.Item)
		}
		ord, err := call.Call(cust, "place_order", schema.Int(st.NextOID), schema.Of(lines))
		if err != nil {
			return schema.Value{}, err
		}
		st.PendingOrders = append(st.PendingOrders, ord.Any().(orleans.GrainID))
		return ord, nil
	}); err != nil {
		return err
	}
	if err := decl("District", "payment", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*dGrainState)
		wh := args[0].Any().(orleans.GrainID)
		cust := args[1].Any().(orleans.GrainID)
		amt := args[2].Int()
		if _, err := call.Call(wh, "pay_ytd", schema.Int(amt)); err != nil {
			return schema.Value{}, err
		}
		st.YTD += amt
		return call.Call(cust, "pay", schema.Int(amt))
	}); err != nil {
		return err
	}
	if err := decl("District", "deliver", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*dGrainState)
		cust := args[0].Any().(orleans.GrainID)
		n := len(st.PendingOrders)
		if n > 10 {
			n = 10
		}
		batch := st.PendingOrders[:n]
		st.PendingOrders = append([]orleans.GrainID(nil), st.PendingOrders[n:]...)
		for _, ord := range batch {
			total, err := call.Call(ord, "mark_delivered")
			if err != nil {
				return schema.Value{}, err
			}
			if _, err := call.Call(cust, "credit_delivery", total); err != nil {
				return schema.Value{}, err
			}
		}
		return schema.Int(n), nil
	}); err != nil {
		return err
	}
	return decl("District", "stock_level", func(call *orleans.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*dGrainState)
		wh := args[0].Any().(orleans.GrainID)
		return call.Call(wh, "stock_level", schema.Of(append([]int(nil), st.RecentItems...)))
	})
}

func (a *OrleansApp) deploy() error {
	var err error
	a.warehouse, err = a.rt.CreateGrain("Warehouse")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	for d := 0; d < a.cfg.Districts; d++ {
		district, err := a.rt.CreateGrain("District")
		if err != nil {
			return err
		}
		a.districts = append(a.districts, district)
		var custs []orleans.GrainID
		for c := 0; c < a.cfg.CustomersPerDistrict; c++ {
			cust, err := a.rt.CreateGrain("Customer")
			if err != nil {
				return err
			}
			custs = append(custs, cust)
		}
		a.customers = append(a.customers, custs)
		for _, cust := range custs {
			if _, err := a.rt.Call(district, "new_order",
				a.warehouse, cust, a.cfg.genLines(rng)); err != nil {
				return fmt.Errorf("seed order: %w", err)
			}
		}
	}
	return nil
}

// Name implements App.
func (a *OrleansApp) Name() string {
	if a.unsafe {
		return "Orleans*"
	}
	return "Orleans"
}

// Runtime exposes the underlying runtime.
func (a *OrleansApp) Runtime() *orleans.Runtime { return a.rt }

// withLock wraps fn in the warehouse lock for the serializable variant.
func (a *OrleansApp) withLock(fn func() error) error {
	if !a.unsafe {
		if _, err := a.rt.Call(a.warehouse, "lock"); err != nil {
			return err
		}
		defer func() { _, _ = a.rt.Call(a.warehouse, "unlock") }()
	}
	return fn()
}

// DoTxn implements App.
func (a *OrleansApp) DoTxn(rng *rand.Rand) error {
	d := rng.Intn(len(a.districts))
	district := a.districts[d]
	cust := a.customers[d][rng.Intn(len(a.customers[d]))]
	switch a.cfg.pickTxn(rng) {
	case txnNewOrder:
		lines := a.cfg.genLines(rng)
		return a.withLock(func() error {
			_, err := a.rt.Call(district, "new_order", a.warehouse, cust, lines)
			return err
		})
	case txnPayment:
		amt := 1 + rng.Intn(5000)
		return a.withLock(func() error {
			_, err := a.rt.Call(district, "payment", a.warehouse, cust, amt)
			return err
		})
	case txnOrderStatus:
		_, err := a.rt.Call(cust, "order_status")
		return err
	case txnDelivery:
		return a.withLock(func() error {
			_, err := a.rt.Call(district, "deliver", cust)
			return err
		})
	default: // stock level
		_, err := a.rt.Call(district, "stock_level", a.warehouse)
		return err
	}
}

// Close implements App.
func (a *OrleansApp) Close() { a.rt.Close() }
