package tpcc

import (
	"fmt"
	"math/rand"
	"time"

	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
)

type ownershipID = ownership.ID

func ownID(v uint64) ownership.ID { return ownership.ID(v) }

// AEONApp is TPC-C on the AEON runtime (multiple or single ownership).
type AEONApp struct {
	name string
	cfg  Config
	rt   *core.Runtime
	so   bool

	warehouse ownership.ID
	districts []ownership.ID
	customers [][]ownership.ID // per district
}

var _ App = (*AEONApp)(nil)

// BuildAEON deploys TPC-C on a fresh AEON runtime: the warehouse (with its
// stock) on the first server, one district per server round-robin, and the
// customers co-located with their district. Each customer gets one seed
// order so the ownership sharing (and therefore the dominator structure) is
// established before measurement.
func BuildAEON(cl *cluster.Cluster, cfg Config, singleOwnership bool) (*AEONApp, error) {
	s, err := Schema(cfg, singleOwnership)
	if err != nil {
		return nil, err
	}
	cfg2 := core.Config{
		MessageBytes:     256,
		ChargeClientHops: true,
		AcquireTimeout:   30 * time.Second,
	}
	if !singleOwnership {
		// Creating each multi-owned Order publishes sharing edges to the
		// authoritative ownership network (§ 5.1) — a globally serialized
		// update AEON pays and AEON_SO avoids.
		cfg2.SharedOwnershipUpdateCost = 500 * time.Microsecond
	}
	rt, err := core.New(s, ownership.NewGraph(), cl, cfg2)
	if err != nil {
		return nil, err
	}
	app := &AEONApp{name: "AEON", cfg: cfg, rt: rt, so: singleOwnership}
	if singleOwnership {
		app.name = "AEON_SO"
	}
	if err := app.deploy(); err != nil {
		rt.Close()
		return nil, err
	}
	return app, nil
}

func (a *AEONApp) deploy() error {
	servers := a.rt.Cluster().Servers()
	if len(servers) == 0 {
		return fmt.Errorf("tpcc: cluster has no servers")
	}
	var err error
	a.warehouse, err = a.rt.CreateContextOn(servers[0].ID(), "Warehouse")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(1))
	for d := 0; d < a.cfg.Districts; d++ {
		srv := servers[d%len(servers)].ID()
		district, err := a.rt.CreateContextOn(srv, "District", a.warehouse)
		if err != nil {
			return err
		}
		a.districts = append(a.districts, district)
		var custs []ownership.ID
		for c := 0; c < a.cfg.CustomersPerDistrict; c++ {
			cust, err := a.rt.CreateContext("Customer", district)
			if err != nil {
				return err
			}
			custs = append(custs, cust)
		}
		a.customers = append(a.customers, custs)

		// Seed one order per customer so sharing (multi-ownership) exists
		// before the dominator caches warm.
		for _, cust := range custs {
			if _, err := a.rt.Submit(a.warehouse, "new_order",
				district, cust, a.cfg.genLines(rng)); err != nil {
				return fmt.Errorf("seed order: %w", err)
			}
		}
	}
	// Warm the dominator caches: steady-state order creation keeps them
	// valid only once every parent's dominator is cached.
	g := a.rt.Graph()
	if _, err := g.Dom(a.warehouse); err != nil {
		return err
	}
	for d, district := range a.districts {
		if _, err := g.Dom(district); err != nil {
			return err
		}
		for _, cust := range a.customers[d] {
			if _, err := g.Dom(cust); err != nil {
				return err
			}
		}
	}
	return nil
}

// Name implements App.
func (a *AEONApp) Name() string { return a.name }

// Runtime exposes the underlying runtime.
func (a *AEONApp) Runtime() *core.Runtime { return a.rt }

// DoTxn implements App.
func (a *AEONApp) DoTxn(rng *rand.Rand) error {
	d := rng.Intn(len(a.districts))
	district := a.districts[d]
	cust := a.customers[d][rng.Intn(len(a.customers[d]))]
	var err error
	switch a.cfg.pickTxn(rng) {
	case txnNewOrder:
		_, err = a.rt.Submit(a.warehouse, "new_order", district, cust, a.cfg.genLines(rng))
	case txnPayment:
		_, err = a.rt.Submit(a.warehouse, "payment", district, cust, 1+rng.Intn(5000))
	case txnOrderStatus:
		_, err = a.rt.Submit(cust, "order_status")
	case txnDelivery:
		_, err = a.rt.Submit(district, "deliver")
	case txnStockLevel:
		_, err = a.rt.Submit(a.warehouse, "stock_level", district)
	}
	return err
}

// DistrictState returns a district's state (tests).
func (a *AEONApp) DistrictState(d int) (*DistrictState, error) {
	c, err := a.rt.Context(a.districts[d])
	if err != nil {
		return nil, err
	}
	st, ok := c.State().(*DistrictState)
	if !ok {
		return nil, fmt.Errorf("district state is %T", c.State())
	}
	return st, nil
}

// Close implements App.
func (a *AEONApp) Close() { a.rt.Close() }
