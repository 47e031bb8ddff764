package workload

// The IoT/telemetry ingestion scenario: a wide, shallow ownership graph —
// one Region context per server, each owning a row of Sensor contexts —
// with high fan-in aggregation (Region.rollup sweeps every sensor into the
// region's rollup state). This is the shape the context-aware/IoT
// middleware surveys describe (PAPERS.md, arXiv:1905.11365 / 1309.1515):
// many small leaf contexts, writes fanning in to per-region aggregates.
// Soak traffic is ingest-dominated, which the ingress coalescer batches
// into SubmitBatch frames when driven through client futures.

import (
	"fmt"
	"math/rand"

	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/ownership"
	"aeon/internal/schema"
)

// IoTSensor is a leaf telemetry accumulator; exported and wire-registered
// so it can ride migration state transfer and checkpoints.
type IoTSensor struct {
	Count int
	Sum   int
}

// IoTRegion aggregates its sensors' readings on demand.
type IoTRegion struct {
	Rollups int
	Total   int
}

func init() {
	schema.RegisterWireType(&IoTSensor{})
	schema.RegisterWireType(&IoTRegion{})
	RegisterScenario("iot", func(servers int) Scenario { return NewIoT(servers, 0) })
}

// IoT is the telemetry scenario instance. Zero-valued fields take defaults.
type IoT struct {
	servers          int
	sensorsPerRegion int

	regions []ownership.ID
	sensors []ownership.ID // flattened, region-major: entity e = region*S + i
}

// NewIoT sizes the scenario: one region per server, sensorsPerRegion leaf
// sensors each (default 6).
func NewIoT(servers, sensorsPerRegion int) *IoT {
	if sensorsPerRegion <= 0 {
		sensorsPerRegion = 6
	}
	return &IoT{servers: servers, sensorsPerRegion: sensorsPerRegion}
}

func (w *IoT) Name() string { return "iot" }

// Schema declares the two contextclasses. Sensor.ingest is the hot write;
// Region.rollup is the fan-in sweep; Region.provision is the inert churn
// op (a fresh sensor starts at zero, so rollup totals are unperturbed).
func (w *IoT) Schema() *schema.Schema {
	s := schema.New()
	sensor := s.MustDeclareClass("Sensor", func() any { return &IoTSensor{} })
	sensor.MustDeclareMethod("ingest", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*IoTSensor)
		st.Count++
		st.Sum += args[0].Int()
		return schema.Int(st.Sum), nil
	})
	sensor.MustDeclareMethod("total", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		return schema.Int(call.State().(*IoTSensor).Sum), nil
	}, schema.RO())
	sensor.MustDeclareMethod("read", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*IoTSensor)
		return schema.Of(fmt.Sprintf("%d/%d", st.Count, st.Sum)), nil
	}, schema.RO())

	region := s.MustDeclareClass("Region", func() any { return &IoTRegion{} })
	region.MustDeclareMethod("rollup", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		sensors, err := call.Children("Sensor")
		if err != nil {
			return schema.Value{}, err
		}
		total := 0
		for _, id := range sensors {
			v, err := call.Sync(id, "total")
			if err != nil {
				return schema.Value{}, err
			}
			total += v.Int()
		}
		st := call.State().(*IoTRegion)
		st.Rollups++
		st.Total = total
		return schema.Int(total), nil
	}, schema.MayCall("Sensor", "total"))
	region.MustDeclareMethod("stats", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		st := call.State().(*IoTRegion)
		return schema.Of(fmt.Sprintf("%d/%d", st.Rollups, st.Total)), nil
	}, schema.RO())
	region.MustDeclareMethod("provision", func(call schema.Call, args []schema.Value) (schema.Value, error) {
		id, err := call.NewContext("Sensor", call.Self())
		return schema.ID(id), err
	})
	return s
}

// Build creates one region per server, each owning sensorsPerRegion
// sensors, in fixed server-then-index order.
func (w *IoT) Build(rt *core.Runtime) error {
	w.regions = w.regions[:0]
	w.sensors = w.sensors[:0]
	for _, srv := range rt.Cluster().Servers() {
		region, err := rt.CreateContextOn(srv.ID(), "Region")
		if err != nil {
			return fmt.Errorf("iot region on %v: %w", srv.ID(), err)
		}
		w.regions = append(w.regions, region)
		for i := 0; i < w.sensorsPerRegion; i++ {
			sensor, err := rt.CreateContextOn(srv.ID(), "Sensor", region)
			if err != nil {
				return fmt.Errorf("iot sensor %d on %v: %w", i, srv.ID(), err)
			}
			w.sensors = append(w.sensors, sensor)
		}
	}
	return nil
}

// Script ingests two fixed readings into every sensor, reads each back,
// then rolls up and reads every region — cross-server when driven from one
// node, so transcripts pin the full forwarding path.
func (w *IoT) Script(submit Submit) []string {
	var out []string
	rec := recorder(&out)
	for e, sensor := range w.sensors {
		rec(submit(sensor, "ingest", 10+e))
		rec(submit(sensor, "ingest", 3*e+1))
	}
	for _, sensor := range w.sensors {
		rec(submit(sensor, "read"))
	}
	for _, region := range w.regions {
		rec(submit(region, "rollup"))
		rec(submit(region, "stats"))
	}
	return out
}

// Roots are the regions: single-parent trees, safe for migration churn.
func (w *IoT) Roots() []ownership.ID { return w.regions }
func (w *IoT) Entities() int         { return len(w.sensors) }
func (w *IoT) EntityServer(e int) cluster.ServerID {
	return cluster.ServerID(e/w.sensorsPerRegion + 1)
}
func (w *IoT) RootServer(root int) cluster.ServerID {
	return cluster.ServerID(root + 1)
}
func (w *IoT) RootEntity(root int) int { return root * w.sensorsPerRegion }

// SoakOp is ingest-dominated (7 in 8) with periodic region rollups — the
// fan-in sweep riding alongside the leaf writes.
func (w *IoT) SoakOp(rng *rand.Rand) SoakOp {
	if rng.Intn(8) == 0 {
		r := rng.Intn(len(w.regions))
		return SoakOp{Target: w.regions[r], Method: "rollup"}
	}
	e := rng.Intn(len(w.sensors))
	v := 1 + rng.Intn(100)
	return SoakOp{
		Target:  w.sensors[e],
		Method:  "ingest",
		Args:    []any{v},
		Effects: []Effect{{Entity: e, Delta: uint64(v)}},
	}
}

// ReadEntity reads a sensor's cumulative ingested sum — the monotone
// counter the chaos harness model-checks.
func (w *IoT) ReadEntity(submit Submit, e int) (uint64, error) {
	v, err := submit(w.sensors[e], "total")
	if err != nil {
		return 0, err
	}
	return uint64(v.(int)), nil
}

// ChurnOp provisions a fresh (zero-valued) sensor in the first region: a
// replicated context creation that perturbs no counter.
func (w *IoT) ChurnOp() (ownership.ID, string, []any) {
	return w.regions[0], "provision", nil
}
