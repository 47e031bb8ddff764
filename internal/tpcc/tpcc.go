// Package tpcc implements the TPC-C benchmark of § 6.1.2 on all five
// systems. Following the paper: the Warehouse and its Stock form a single
// context ("since the number of items is fixed ... warehouse and items form
// a single context"); one District is placed per server (partitioning by
// district à la Rococo, which stresses distributed transactions); Districts
// own Customers; and each Order context is owned by its District *and* its
// Customer under multiple ownership, or by the Customer alone under single
// ownership — the structural difference behind Figure 6's crossover:
//
//   - multiple ownership: "method calls from Customer contexts to Order
//     contexts have to be synchronized by the District context, which is the
//     dominator of Customer contexts. This leads to the District context
//     becoming saturated fast."
//   - single ownership: "the dominators for Customer contexts are
//     themselves. Therefore, the District context does not become the
//     bottleneck" — the runtime can crab from the District into the
//     Customer, releasing the District early.
//
// The five standard transactions run with the standard mix: NewOrder 45%,
// Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%.
package tpcc

import (
	"fmt"
	"math/rand"
	"time"

	"aeon/internal/schema"
)

// Config sizes the benchmark.
type Config struct {
	// Districts is the number of districts (one per server in the paper's
	// scale-out runs).
	Districts int
	// CustomersPerDistrict sizes each district (3000 in the full spec;
	// scaled down for CI-speed runs).
	CustomersPerDistrict int
	// Items is the warehouse stock catalogue size (100k in the spec).
	Items int
	// MinLines and MaxLines bound order line counts (spec: 5–15).
	MinLines, MaxLines int
	// StepCost is the simulated CPU per transaction step.
	StepCost time.Duration
	// Mix weights the transactions in percent.
	Mix TxnMix
}

// TxnMix weights the five TPC-C transactions.
type TxnMix struct {
	NewOrderPct    int
	PaymentPct     int
	OrderStatusPct int
	DeliveryPct    int
	StockLevelPct  int
}

// DefaultConfig mirrors the paper's setup at benchmark-friendly scale.
func DefaultConfig() Config {
	return Config{
		Districts:            4,
		CustomersPerDistrict: 40,
		Items:                1000,
		MinLines:             5,
		MaxLines:             15,
		StepCost:             40 * time.Microsecond,
		Mix: TxnMix{
			NewOrderPct:    45,
			PaymentPct:     43,
			OrderStatusPct: 4,
			DeliveryPct:    4,
			StockLevelPct:  4,
		},
	}
}

type txnKind int

const (
	txnNewOrder txnKind = iota + 1
	txnPayment
	txnOrderStatus
	txnDelivery
	txnStockLevel
)

func (c Config) pickTxn(rng *rand.Rand) txnKind {
	n := rng.Intn(100)
	m := c.Mix
	switch {
	case n < m.NewOrderPct:
		return txnNewOrder
	case n < m.NewOrderPct+m.PaymentPct:
		return txnPayment
	case n < m.NewOrderPct+m.PaymentPct+m.OrderStatusPct:
		return txnOrderStatus
	case n < m.NewOrderPct+m.PaymentPct+m.OrderStatusPct+m.DeliveryPct:
		return txnDelivery
	default:
		return txnStockLevel
	}
}

// genLines samples order lines.
func (c Config) genLines(rng *rand.Rand) []OrderLine {
	n := c.MinLines
	if c.MaxLines > c.MinLines {
		n += rng.Intn(c.MaxLines - c.MinLines + 1)
	}
	lines := make([]OrderLine, n)
	for i := range lines {
		lines[i] = OrderLine{
			Item:   rng.Intn(c.Items),
			Qty:    1 + rng.Intn(10),
			Amount: 1 + rng.Intn(9999),
		}
	}
	return lines
}

// App is a deployed TPC-C the load generator drives.
type App interface {
	// Name identifies the system variant.
	Name() string
	// DoTxn executes one transaction of the standard mix.
	DoTxn(rng *rand.Rand) error
	// Close tears the deployment down.
	Close()
}

// OrderLine is one line of an order. Per § 6.3 ("one context plays the role
// of a container for several objects"), OrderLine and the NewOrder marker
// are plain objects folded into the Order context's state rather than
// separate contexts.
type OrderLine struct {
	Item   int
	Qty    int
	Amount int
}

// WarehouseState is the Warehouse context (including Stock).
type WarehouseState struct {
	YTD   int
	Stock []int // quantity per item
}

// DistrictState is a District context.
type DistrictState struct {
	ID      int
	YTD     int
	NextOID int
	// PendingOrders queues undelivered orders as (order context, customer
	// context) pairs for the Delivery transaction.
	PendingOrders []PendingOrder
	// RecentItems remembers the last order's items for StockLevel.
	RecentItems []int
}

// PendingOrder is a to-be-delivered order reference.
type PendingOrder struct {
	Order    uint64
	Customer uint64
}

// CustomerState is a Customer context.
type CustomerState struct {
	Balance    int
	YTDPayment int
	Payments   int
	LastOrder  uint64
	Delivered  int
}

// OrderState is an Order context (lines and markers folded in).
type OrderState struct {
	OID       int
	Lines     []OrderLine
	Total     int
	Delivered bool
}

// Schema declares the TPC-C contextclasses for the AEON-protocol runtimes.
// so selects the single-ownership variant's district crab path.
func Schema(cfg Config, so bool) (*schema.Schema, error) {
	s := schema.New()
	warehouse, err := s.DeclareClass("Warehouse", func() any {
		st := &WarehouseState{Stock: make([]int, cfg.Items)}
		for i := range st.Stock {
			st.Stock[i] = 100
		}
		return st
	})
	if err != nil {
		return nil, err
	}
	district, err := s.DeclareClass("District", func() any { return &DistrictState{} })
	if err != nil {
		return nil, err
	}
	customer, err := s.DeclareClass("Customer", func() any { return &CustomerState{} })
	if err != nil {
		return nil, err
	}
	order, err := s.DeclareClass("Order", func() any { return &OrderState{} })
	if err != nil {
		return nil, err
	}

	cost := cfg.StepCost
	// Cost model: the Warehouse's stock bookkeeping is cheap array math (it
	// must be — every NewOrder and Payment passes through the single
	// Warehouse context), while customer- and order-side work (record
	// creation, balance maintenance, history) carries the bulk of a
	// transaction's compute.
	whCost := cost / 4
	custCost := cost * 3 / 2
	fillCost := cost * 2

	// --- Order methods -------------------------------------------------
	order.MustDeclareMethod("fill", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*OrderState)
		st.OID = args[0].Int()
		st.Lines = args[1].Any().([]OrderLine)
		for _, l := range st.Lines {
			st.Total += l.Amount
		}
		return schema.Value{}, nil
	}, schema.Cost(fillCost))
	order.MustDeclareMethod("mark_delivered", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*OrderState)
		st.Delivered = true
		return schema.Int(st.Total), nil
	}, schema.Cost(cost))
	order.MustDeclareMethod("read", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*OrderState)
		return schema.Of(struct {
			OID       int
			Lines     int
			Delivered bool
		}{st.OID, len(st.Lines), st.Delivered}), nil
	}, schema.RO(), schema.Cost(cost))

	// --- Customer methods ----------------------------------------------
	// place_order creates the Order context. Under multiple ownership the
	// order is owned by District and Customer; under single ownership by
	// the Customer alone.
	customer.MustDeclareMethod("place_order", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		oid := args[0].Int()
		lines := args[1].Any().([]OrderLine)
		districtID := args[2].ID()
		var owners []ownershipID
		if so {
			owners = []ownershipID{call.Self()}
		} else {
			owners = []ownershipID{districtID, call.Self()}
		}
		ord, err := call.NewContext("Order", owners...)
		if err != nil {
			return schema.Value{}, err
		}
		if _, err := call.Sync(ord, "fill", schema.Int(oid), schema.Of(lines)); err != nil {
			return schema.Value{}, err
		}
		st := call.State().(*CustomerState)
		st.LastOrder = uint64(ord)
		return schema.Of(ord), nil
	}, schema.MayCall("Order", "fill"), schema.Cost(custCost))

	customer.MustDeclareMethod("pay", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*CustomerState)
		amt := args[0].Int()
		st.Balance -= amt
		st.YTDPayment += amt
		st.Payments++
		return schema.Int(st.Balance), nil
	}, schema.Cost(custCost))

	customer.MustDeclareMethod("deliver_order", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		ord := args[0].ID()
		total, err := call.Sync(ord, "mark_delivered")
		if err != nil {
			return schema.Value{}, err
		}
		st := call.State().(*CustomerState)
		st.Balance += total.Int()
		st.Delivered++
		return total, nil
	}, schema.MayCall("Order", "mark_delivered"), schema.Cost(cost))

	customer.MustDeclareMethod("order_status", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*CustomerState)
		if st.LastOrder == 0 {
			return schema.Value{}, nil
		}
		return call.Sync(ownID(st.LastOrder), "read")
	}, schema.RO(), schema.MayCall("Order", "read"), schema.Cost(cost))

	// --- District methods ----------------------------------------------
	// new_order_district: assign the order id and hand off to the
	// customer. Under single ownership the customer subtree is private, so
	// the district crabs into it and frees itself; under multiple
	// ownership the district must stay locked while customer→order calls
	// run (orders are reachable from the district around the customer).
	district.MustDeclareMethod("new_order_district", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*DistrictState)
		cust := args[0].ID()
		lines := args[1].Any().([]OrderLine)
		st.NextOID++
		st.RecentItems = st.RecentItems[:0]
		for _, l := range lines {
			st.RecentItems = append(st.RecentItems, l.Item)
		}
		if so {
			// The pending-order record is filed when the order id is known;
			// under SO the order context id comes back via a dispatch-free
			// convention: customers record it, the district queues the
			// customer and resolves the order at delivery time.
			st.PendingOrders = append(st.PendingOrders, PendingOrder{Customer: uint64(cust)})
			return schema.Value{}, call.Crab(cust, "place_order", schema.Int(st.NextOID), schema.Of(lines), schema.ID(call.Self()))
		}
		ord, err := call.Sync(cust, "place_order", schema.Int(st.NextOID), schema.Of(lines), schema.ID(call.Self()))
		if err != nil {
			return schema.Value{}, err
		}
		st.PendingOrders = append(st.PendingOrders, PendingOrder{
			Order: uint64(ord.Any().(ownershipID)), Customer: uint64(cust),
		})
		return ord, nil
	}, schema.MayCall("Customer", "place_order"), schema.Cost(cost))

	district.MustDeclareMethod("payment_district", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*DistrictState)
		cust := args[0].ID()
		amt := args[1].Int()
		st.YTD += amt
		if so {
			return schema.Value{}, call.Crab(cust, "pay", schema.Int(amt))
		}
		return call.Sync(cust, "pay", schema.Int(amt))
	}, schema.MayCall("Customer", "pay"), schema.Cost(cost))

	// deliver: pop up to 10 pending orders. Multiple ownership reaches the
	// order contexts directly (the district owns them); single ownership
	// routes through the owning customer.
	district.MustDeclareMethod("deliver", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*DistrictState)
		n := len(st.PendingOrders)
		if n > 10 {
			n = 10
		}
		batch := st.PendingOrders[:n]
		st.PendingOrders = append([]PendingOrder(nil), st.PendingOrders[n:]...)
		delivered := 0
		for _, p := range batch {
			if so {
				// Resolve the order via the customer's last-order record.
				if _, err := call.Sync(ownID(p.Customer), "deliver_last"); err != nil {
					return schema.Value{}, err
				}
			} else {
				if _, err := call.Sync(ownID(p.Customer), "deliver_order", schema.ID(ownID(p.Order))); err != nil {
					return schema.Value{}, err
				}
			}
			delivered++
		}
		return schema.Int(delivered), nil
	}, schema.MayCall("Customer", "deliver_order"), schema.MayCall("Customer", "deliver_last"), schema.Cost(cost))

	customer.MustDeclareMethod("deliver_last", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*CustomerState)
		if st.LastOrder == 0 {
			return schema.Int(0), nil
		}
		total, err := call.Sync(ownID(st.LastOrder), "mark_delivered")
		if err != nil {
			return schema.Value{}, err
		}
		st.Balance += total.Int()
		st.Delivered++
		return total, nil
	}, schema.MayCall("Order", "mark_delivered"), schema.Cost(cost))

	district.MustDeclareMethod("recent_items", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*DistrictState)
		return schema.Of(append([]int(nil), st.RecentItems...)), nil
	}, schema.RO(), schema.Cost(cost))

	// --- Warehouse methods ----------------------------------------------
	// new_order: reserve stock, then continue in the district via an
	// asynchronous tail call, releasing the Warehouse (§ 6.1.2: "once a
	// payment transaction finishes its execution in a Warehouse context, it
	// calls a method in a District context asynchronously, and releases the
	// Warehouse context. This allows another event to enter the Warehouse").
	warehouse.MustDeclareMethod("new_order", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*WarehouseState)
		district := args[0].ID()
		cust := args[1].ID()
		lines := args[2].Any().([]OrderLine)
		for _, l := range lines {
			if st.Stock[l.Item] < l.Qty {
				st.Stock[l.Item] += 100 // restock per the spec's wrap rule
			}
			st.Stock[l.Item] -= l.Qty
		}
		call.Work(time.Duration(len(lines)) * whCost / 10)
		return schema.Value{}, call.Crab(district, "new_order_district", schema.ID(cust), schema.Of(lines))
	}, schema.MayCall("District", "new_order_district"), schema.Cost(whCost))

	warehouse.MustDeclareMethod("payment", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*WarehouseState)
		district := args[0].ID()
		cust := args[1].ID()
		amt := args[2].Int()
		st.YTD += amt
		return schema.Value{}, call.Crab(district, "payment_district", schema.ID(cust), schema.Int(amt))
	}, schema.MayCall("District", "payment_district"), schema.Cost(whCost))

	warehouse.MustDeclareMethod("stock_level", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*WarehouseState)
		district := args[0].ID()
		items, err := call.Sync(district, "recent_items")
		if err != nil {
			return schema.Value{}, err
		}
		low := 0
		for _, it := range items.Any().([]int) {
			if st.Stock[it] < 15 {
				low++
			}
		}
		return schema.Int(low), nil
	}, schema.RO(), schema.MayCall("District", "recent_items"), schema.Cost(whCost))

	if err := s.Freeze(); err != nil {
		return nil, fmt.Errorf("tpcc schema: %w", err)
	}
	return s, nil
}
