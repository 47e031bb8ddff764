package tpcc

import (
	"fmt"
	"math/rand"

	"aeon/internal/cluster"
	"aeon/internal/eventwave"
	"aeon/internal/ownership"
)

// EventWaveApp is TPC-C on the EventWave baseline: the single-ownership
// tree Warehouse → District → Customer → Order with every transaction
// totally ordered at the Warehouse root.
type EventWaveApp struct {
	cfg Config
	rt  *eventwave.Runtime

	warehouse ownership.ID
	districts []ownership.ID
	customers [][]ownership.ID
}

var _ App = (*EventWaveApp)(nil)

// BuildEventWave deploys TPC-C on an EventWave runtime.
func BuildEventWave(cl *cluster.Cluster, cfg Config) (*EventWaveApp, error) {
	s, err := Schema(cfg, true) // tree ⇒ single ownership
	if err != nil {
		return nil, err
	}
	rt, err := eventwave.New(s, cl, eventwave.DefaultConfig())
	if err != nil {
		return nil, err
	}
	app := &EventWaveApp{cfg: cfg, rt: rt}
	if err := app.deploy(); err != nil {
		rt.Close()
		return nil, err
	}
	return app, nil
}

func (a *EventWaveApp) deploy() error {
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
		for _, cust := range custs {
			if _, err := a.rt.Submit(a.warehouse, "new_order",
				district, cust, a.cfg.genLines(rng)); err != nil {
				return fmt.Errorf("seed order: %w", err)
			}
		}
	}
	return nil
}

// Name implements App.
func (a *EventWaveApp) Name() string { return "EventWave" }

// DoTxn implements App.
func (a *EventWaveApp) DoTxn(rng *rand.Rand) error {
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

// Close implements App.
func (a *EventWaveApp) Close() { a.rt.Close() }
