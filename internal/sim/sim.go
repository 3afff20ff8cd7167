// Package sim is the end-to-end harness of the reproduction: it
// materialises a flow.Spec into live simulated substrates (click-stream
// generator → sharded stream → analytics cluster → key-value table), wires
// a Flower control loop onto each layer, meters cost, and accounts SLO
// violations — the runtime behind the demo's "observe how different
// controllers change the cloud services capacities dynamically" (§4
// step 3) and behind every experiment in internal/exper.
package sim

import (
	"fmt"
	"time"

	"repro/internal/billing"
	"repro/internal/compute"
	"repro/internal/control"
	"repro/internal/flow"
	"repro/internal/kvstore"
	"repro/internal/metricstore"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// DefaultStep is the simulation tick of a harness whose Options.Step is
// unset.
const DefaultStep = 10 * time.Second

// Options is what a flow spec does not say about a run: how finely to
// tick it, how to decorrelate it, whether to forecast, and whether to
// synthesise every record. Everything else, static layers included
// (flow.ControllerNone), is in the spec. Every control loop applies the
// plant-model guard (control.LoopConfig.PlantGuard), as provider
// autoscalers do.
type Options struct {
	// Step is the simulation tick (default DefaultStep). Controllers run
	// on their own windows on top of this.
	Step time.Duration
	// Seed offsets every stochastic component's seed, so distinct runs of
	// the same spec can be decorrelated deterministically.
	Seed int64
	// Predictive adds trend-forecast pre-provisioning on top of the
	// reactive loops (experiment E8), with a horizon that covers the
	// analytics layer's provision delay; see forecastHorizon.
	Predictive bool
	// PerRecord selects the faithful per-record data path: every click
	// event draws its own user and page, is routed to a shard by its key
	// hash and throttled against that shard's budget one record at a
	// time, and every output tuple is a separate keyed table write. No
	// payload is built; an event is its key hash and size. The default is
	// the aggregate count-based path, which produces statistically
	// identical metrics at O(shards) instead of O(records) per tick; see
	// internal/randx and TestAggregateMatchesPerRecord. PerRecord is that
	// path's oracle.
	PerRecord bool
}

// Harness is one materialised flow under management.
type Harness struct {
	spec flow.Spec
	opts Options

	Clock     *simtime.Clock
	Scheduler *simtime.Scheduler
	Store     *metricstore.Store

	Generator *workload.Generator
	Stream    *stream.Stream
	Cluster   *compute.Cluster
	Table     *kvstore.Table
	Meter     *billing.Meter

	// Queries is the dashboard read workload (nil unless the spec's
	// DashboardSpec is enabled).
	Queries *workload.QueryGenerator

	// Loops holds the per-layer write-path loops, plus the read-capacity
	// loop under flow.StorageReads when the dashboard is enabled.
	Loops map[flow.LayerKind]*control.Loop

	predictive *predictiveProvisioner

	// Accounting handles for the per-tick SLO/utilisation reads, resolved
	// lazily on the first tick (the substrates register their metrics when
	// they first publish) and then reused allocation-free.
	accMetrics accountHandles

	res Result
}

// accountHandles caches the metric handles account reads every tick.
type accountHandles struct {
	streamThrottled *metricstore.Handle
	streamOffered   *metricstore.Handle
	cpuUtil         *metricstore.Handle
	kvWriteThrottle *metricstore.Handle
	kvReadThrottle  *metricstore.Handle
	kvWriteUtil     *metricstore.Handle
	kvReadUtil      *metricstore.Handle
}

// latest resolves *hp against the store on first use, then reads the
// metric's newest datapoint through the cached handle.
func (h *Harness) latest(hp **metricstore.Handle, ns, name, dimKey string) (timeseries.Point, bool) {
	if *hp == nil {
		hd, ok := h.Store.Lookup(ns, name, map[string]string{dimKey: h.spec.Name})
		if !ok {
			return timeseries.Point{}, false
		}
		*hp = hd
	}
	return (*hp).Latest()
}

// Result summarises a run.
type Result struct {
	Duration time.Duration
	Step     time.Duration
	Ticks    int

	// Violations counts ticks on which each layer breached its SLO proxy:
	// ingestion throttled writes, analytics standing backlog, storage
	// write throttles — plus, under flow.StorageReads when the dashboard
	// read workload is enabled, storage read throttles.
	Violations map[flow.LayerKind]int
	// ViolationRate is the fraction of ticks with any layer in violation.
	ViolationRate float64

	// MeanUtil is each layer's average utilisation over the run (percent).
	MeanUtil map[flow.LayerKind]float64

	// Actions counts applied resize actions per layer.
	Actions map[flow.LayerKind]int

	// TotalCost is the metered spend in dollars; PeakRunRate the highest
	// hourly rate reached.
	TotalCost   float64
	PeakRunRate float64

	// Offered and Rejected are the generator's cumulative record counts.
	Offered, Rejected int64

	// FinalAllocation is the allocation at the end of the run.
	FinalAllocation billing.Allocation
}

// New materialises the spec.
func New(spec flow.Spec, opts Options) (*Harness, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Step <= 0 {
		opts.Step = DefaultStep
	}

	h := &Harness{
		spec:  spec,
		opts:  opts,
		Clock: simtime.NewClock(),
		Store: metricstore.NewStore(),
		Loops: make(map[flow.LayerKind]*control.Loop),
	}
	h.Scheduler = simtime.NewScheduler(h.Clock, opts.Step)

	ing, _ := spec.Layer(flow.Ingestion)
	ana, _ := spec.Layer(flow.Analytics)
	sto, _ := spec.Layer(flow.Storage)

	// Ingestion layer.
	st, err := stream.New(spec.Name, int(ing.Initial), h.Store)
	if err != nil {
		return nil, err
	}
	h.Stream = st

	// Storage layer (built before analytics, which sinks into it). With
	// the dashboard enabled, read capacity becomes an elastic resource
	// with its own bounds; otherwise it is a static default.
	rcu := sto.RCU
	if rcu <= 0 {
		rcu = 100
	}
	tableCfg := kvstore.Config{
		Name:       spec.Name,
		WCU:        sto.Initial,
		RCU:        rcu,
		MinWCU:     sto.Min,
		MaxWCU:     sto.Max,
		Partitions: sto.Partitions,
	}
	if spec.Dashboard.Enabled {
		tableCfg.RCU = spec.Dashboard.InitialRCU
		tableCfg.MinRCU = spec.Dashboard.MinRCU
		tableCfg.MaxRCU = spec.Dashboard.MaxRCU
	}
	table, err := kvstore.NewTable(tableCfg, h.Store)
	if err != nil {
		return nil, err
	}
	h.Table = table

	// Analytics layer: the reference click-stream topology (parse →
	// sessionize → aggregate) costing 1 CPU-ms per record end to end,
	// so one VM at the default 1000 ms/s capacity handles 1000 records/s
	// at 100% — the same unit economics as one stream shard.
	vmCap := ana.VMCapacityMsPerSec
	if vmCap <= 0 {
		vmCap = 1000
	}
	cluster, err := compute.NewCluster(compute.Config{
		Topology: compute.Topology{
			Name: spec.Name,
			Stages: []compute.Stage{
				{Name: "parse", CostMs: 0.2, Selectivity: 1},
				{Name: "sessionize", CostMs: 0.5, Selectivity: 1},
				{Name: "aggregate", CostMs: 0.3, Selectivity: 0.1},
			},
		},
		VMCapacityMsPerSec: vmCap,
		InitialVMs:         int(ana.Initial),
		MinVMs:             int(ana.Min),
		MaxVMs:             int(ana.Max),
		ProvisionDelay:     ana.ProvisionDelay.D(),
		CPUNoiseStd:        ana.CPUNoiseStd,
		BaseCPUPct:         ana.BaseCPUPct,
		OutputBytes:        256,
		Seed:               opts.Seed + 1000,
	},
		compute.StreamSource{Stream: st},
		compute.SinkFunc(func(now time.Time, n, avgBytes int) {
			if !opts.PerRecord {
				// Aggregated page counters, admitted in closed form;
				// throttles are counted by the table.
				table.PutItemsUniform(now, n, avgBytes)
				return
			}
			for i := 0; i < n; i++ {
				// Aggregated page counters keyed by item index; errors are
				// throttles, which the table already counts.
				_ = table.PutItem(fmt.Sprintf("agg-%d", i), avgBytes)
			}
		}),
		h.Store)
	if err != nil {
		return nil, err
	}
	h.Cluster = cluster

	// Workload.
	pattern, err := spec.Workload.ToPattern()
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Pattern:   pattern,
		Poisson:   spec.Workload.Poisson,
		Seed:      spec.Workload.Seed + opts.Seed,
		Aggregate: !opts.PerRecord,
		Start:     h.Clock.Now(),
	}, st, h.Store)
	if err != nil {
		return nil, err
	}
	h.Generator = gen

	// Billing.
	meter, err := billing.NewMeter(spec.Prices, billing.AllocationFunc(h.Allocation), h.Store)
	if err != nil {
		return nil, err
	}
	h.Meter = meter

	// Control loops.
	if err := h.buildLoops(ing, ana, sto); err != nil {
		return nil, err
	}

	// Dashboard read workload (optional): queries hit the table after the
	// write path has run for the tick, before the table publishes metrics.
	if spec.Dashboard.Enabled {
		qpat, err := spec.Dashboard.Workload.ToPattern()
		if err != nil {
			return nil, err
		}
		qgen, err := workload.NewQueryGenerator(workload.QueryConfig{
			Pattern:   qpat,
			ItemBytes: spec.Dashboard.ItemBytes,
			Poisson:   spec.Dashboard.Workload.Poisson,
			Seed:      spec.Dashboard.Workload.Seed + opts.Seed + 2000,
			Start:     h.Clock.Now(),
		}, table, h.Store)
		if err != nil {
			return nil, err
		}
		h.Queries = qgen
		if err := h.buildReadLoop(spec.Dashboard); err != nil {
			return nil, err
		}
	}

	// Registration order is dataflow order; metrics publish after the data
	// moves, and controllers act on fresh metrics.
	h.Scheduler.Register(gen)
	h.Scheduler.Register(cluster)
	if h.Queries != nil {
		h.Scheduler.Register(h.Queries)
	}
	h.Scheduler.Register(st)
	h.Scheduler.Register(table)
	h.Scheduler.Register(meter)
	h.Scheduler.RegisterFunc(h.account)
	// Predictive pre-provisioning acts before the reactive loops so that a
	// pre-scaled allocation is what the loops' next decision observes.
	if opts.Predictive {
		h.predictive = newPredictiveProvisioner(h)
		h.Scheduler.Register(h.predictive)
	}
	for _, kind := range []flow.LayerKind{flow.Ingestion, flow.Analytics, flow.Storage, flow.StorageReads} {
		if loop, ok := h.Loops[kind]; ok {
			h.Scheduler.Register(loop)
		}
	}

	h.res = Result{
		Step:       opts.Step,
		Violations: make(map[flow.LayerKind]int),
		MeanUtil:   make(map[flow.LayerKind]float64),
		Actions:    make(map[flow.LayerKind]int),
	}
	return h, nil
}

// Allocation reports the live allocation across the three layers.
func (h *Harness) Allocation() billing.Allocation {
	return billing.Allocation{
		Shards: h.Stream.ShardCount(),
		VMs:    h.Cluster.VMCount(),
		WCU:    h.Table.WCU(),
		RCU:    h.Table.RCU(),
	}
}

// buildController materialises a flow.ControllerSpec.
func buildController(cs flow.ControllerSpec) (control.Controller, error) {
	switch cs.Type {
	case flow.ControllerAdaptive:
		return control.NewAdaptiveGain(cs.L0, cs.Gamma, cs.LMin, cs.LMax)
	case flow.ControllerMemoryless:
		c, err := control.NewAdaptiveGain(cs.L0, cs.Gamma, cs.LMin, cs.LMax)
		if err != nil {
			return nil, err
		}
		c.Memoryless = true
		return c, nil
	case flow.ControllerFixedGain:
		return control.NewFixedGain(cs.L)
	case flow.ControllerQuasiAdaptive:
		return control.NewQuasiAdaptive(cs.Forgetting)
	case flow.ControllerRule:
		return control.NewRule(cs.High, cs.Low, cs.UpFactor, cs.DownFactor, cs.Cooldown)
	default:
		return nil, fmt.Errorf("sim: no controller for type %q", cs.Type)
	}
}

func (h *Harness) buildLoops(ing, ana, sto flow.LayerSpec) error {
	type binding struct {
		layer    flow.LayerSpec
		sensor   *control.MetricSensor
		actuator *control.FuncActuator
		quantize bool
	}
	bindings := []binding{
		{
			layer: ing,
			// The sensor reads the *accepted* write utilisation, which is
			// bounded near 100% like the CloudWatch metrics Flower consumes;
			// an unbounded offered-load signal would slam the adaptive gain
			// to lmax and command huge overshoots that Eq. 7's asymmetric
			// gain decay is slow to unwind. Under throttling the accepted
			// utilisation pins at ~100%, which still drives growth.
			sensor: &control.MetricSensor{
				Store:      h.Store,
				Namespace:  stream.Namespace,
				Metric:     stream.MetricWriteUtilization,
				Dimensions: map[string]string{"StreamName": h.spec.Name},
				Stat:       timeseries.AggMean,
			},
			actuator: &control.FuncActuator{
				ActuatorName: "shards",
				Get:          func() float64 { return float64(h.Stream.ShardCount()) },
				Apply: func(now time.Time, v float64) error {
					if f := h.prescaleFloor(flow.Ingestion, now); v < f {
						v = f
					}
					return h.Stream.UpdateShardCount(int(v))
				},
				Min: ing.Min, Max: ing.Max,
			},
			quantize: true,
		},
		{
			layer: ana,
			sensor: &control.MetricSensor{
				Store:      h.Store,
				Namespace:  compute.Namespace,
				Metric:     compute.MetricCPUUtilization,
				Dimensions: map[string]string{"Topology": h.spec.Name},
				Stat:       timeseries.AggMean,
			},
			actuator: &control.FuncActuator{
				ActuatorName: "vms",
				Get:          func() float64 { return float64(h.Cluster.VMCount()) },
				Apply: func(now time.Time, v float64) error {
					if f := h.prescaleFloor(flow.Analytics, now); v < f {
						v = f
					}
					return h.Cluster.SetVMCount(now, int(v))
				},
				Min: ana.Min, Max: ana.Max,
			},
			quantize: true,
		},
		{
			layer: sto,
			sensor: &control.MetricSensor{
				Store:      h.Store,
				Namespace:  kvstore.Namespace,
				Metric:     kvstore.MetricWriteUtilization,
				Dimensions: map[string]string{"TableName": h.spec.Name},
				Stat:       timeseries.AggMean,
			},
			actuator: &control.FuncActuator{
				ActuatorName: "wcu",
				Get:          func() float64 { return h.Table.WCU() },
				Apply: func(now time.Time, v float64) error {
					if f := h.prescaleFloor(flow.Storage, now); v < f {
						v = f
					}
					return h.Table.SetWriteCapacity(v)
				},
				Min: sto.Min, Max: sto.Max,
			},
			quantize: false,
		},
	}
	for _, b := range bindings {
		if b.layer.Controller.Type == flow.ControllerNone {
			continue
		}
		ctrl, err := buildController(b.layer.Controller)
		if err != nil {
			return err
		}
		loop, err := control.NewLoop(control.LoopConfig{
			Name:       string(b.layer.Kind),
			Ref:        b.layer.Controller.Ref,
			Window:     b.layer.Controller.Window.D(),
			DeadBand:   b.layer.Controller.DeadBand,
			Quantize:   b.quantize,
			PlantGuard: true,
		}, ctrl, b.sensor, b.actuator)
		if err != nil {
			return err
		}
		h.Loops[b.layer.Kind] = loop
	}
	return nil
}

// buildReadLoop wires the dashboard's read-capacity controller: sensor on
// the table's read utilisation, actuator on SetReadCapacity.
func (h *Harness) buildReadLoop(dash flow.DashboardSpec) error {
	if dash.Controller.Type == flow.ControllerNone {
		return nil
	}
	ctrl, err := buildController(dash.Controller)
	if err != nil {
		return err
	}
	loop, err := control.NewLoop(control.LoopConfig{
		Name:     string(flow.StorageReads),
		Ref:      dash.Controller.Ref,
		Window:   dash.Controller.Window.D(),
		DeadBand: dash.Controller.DeadBand,
		// RCU is a continuous capacity, like WCU.
		Quantize:   false,
		PlantGuard: true,
	}, ctrl,
		&control.MetricSensor{
			Store:      h.Store,
			Namespace:  kvstore.Namespace,
			Metric:     kvstore.MetricReadUtilization,
			Dimensions: map[string]string{"TableName": h.spec.Name},
			Stat:       timeseries.AggMean,
		},
		&control.FuncActuator{
			ActuatorName: "rcu",
			Get:          func() float64 { return h.Table.RCU() },
			Apply:        func(_ time.Time, v float64) error { return h.Table.SetReadCapacity(v) },
			Min:          dash.MinRCU, Max: dash.MaxRCU,
		})
	if err != nil {
		return err
	}
	h.Loops[flow.StorageReads] = loop
	return nil
}

// account tallies per-tick SLO violations and utilisation; it runs after
// the substrates have published their tick metrics.
func (h *Harness) account(now time.Time, step time.Duration) {
	h.res.Ticks++
	m := &h.accMetrics

	violated := false
	if p, ok := h.latest(&m.streamThrottled, stream.Namespace, stream.MetricThrottledWrites, "StreamName"); ok && p.V > 0 {
		h.res.Violations[flow.Ingestion]++
		violated = true
	}
	if h.Cluster.PendingTuples() > 0 {
		h.res.Violations[flow.Analytics]++
		violated = true
	}
	if p, ok := h.latest(&m.kvWriteThrottle, kvstore.Namespace, kvstore.MetricThrottledWrites, "TableName"); ok && p.V > 0 {
		h.res.Violations[flow.Storage]++
		violated = true
	}
	if h.Queries != nil {
		if p, ok := h.latest(&m.kvReadThrottle, kvstore.Namespace, kvstore.MetricThrottledReads, "TableName"); ok && p.V > 0 {
			h.res.Violations[flow.StorageReads]++
			violated = true
		}
	}
	if violated {
		h.res.ViolationRate++ // normalised at the end of Run
	}

	if p, ok := h.latest(&m.streamOffered, stream.Namespace, stream.MetricOfferedUtilization, "StreamName"); ok {
		h.res.MeanUtil[flow.Ingestion] += p.V
	}
	if p, ok := h.latest(&m.cpuUtil, compute.Namespace, compute.MetricCPUUtilization, "Topology"); ok {
		h.res.MeanUtil[flow.Analytics] += p.V
	}
	if p, ok := h.latest(&m.kvWriteUtil, kvstore.Namespace, kvstore.MetricWriteUtilization, "TableName"); ok {
		h.res.MeanUtil[flow.Storage] += p.V
	}
	if h.Queries != nil {
		if p, ok := h.latest(&m.kvReadUtil, kvstore.Namespace, kvstore.MetricReadUtilization, "TableName"); ok {
			h.res.MeanUtil[flow.StorageReads] += p.V
		}
	}
}

// Run advances the simulation by d and returns the cumulative result. It
// may be called repeatedly; results accumulate across calls.
func (h *Harness) Run(d time.Duration) (Result, error) {
	if err := h.Advance(d); err != nil {
		return Result{}, err
	}
	return h.Result(), nil
}

// Advance is Run without building the Result: the per-tick path for a
// caller that advances thousands of times and reads at most Progress.
func (h *Harness) Advance(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("sim: run duration must be positive")
	}
	h.Scheduler.RunFor(d)
	return nil
}

// Progress is the scalar head of a Result — what a flow.advanced event
// carries — read without copying the per-layer maps.
type Progress struct {
	Ticks         int
	ViolationRate float64
	TotalCost     float64
}

// Progress returns the cumulative counters so far; each field equals the
// same-named field of Result().
func (h *Harness) Progress() Progress {
	p := Progress{Ticks: h.res.Ticks, TotalCost: h.Meter.Total()}
	if p.Ticks > 0 {
		p.ViolationRate = h.res.ViolationRate / float64(p.Ticks)
	}
	return p
}

// Result returns the cumulative result so far without advancing the
// simulation (all zero before the first tick).
func (h *Harness) Result() Result {
	res := h.res
	res.Duration = h.Clock.Elapsed()
	p := h.Progress()
	res.ViolationRate, res.TotalCost = p.ViolationRate, p.TotalCost
	// Copy the accumulator maps and normalise the copies, leaving the
	// harness accumulators intact for subsequent Run calls.
	mu := make(map[flow.LayerKind]float64, len(h.res.MeanUtil))
	vio := make(map[flow.LayerKind]int, len(h.res.Violations))
	if res.Ticks > 0 {
		for k, v := range h.res.MeanUtil {
			mu[k] = v / float64(res.Ticks)
		}
	}
	for k, v := range h.res.Violations {
		vio[k] = v
	}
	res.MeanUtil = mu
	res.Violations = vio
	res.Actions = make(map[flow.LayerKind]int, len(h.Loops))
	for kind, loop := range h.Loops {
		res.Actions[kind] = loop.Actions()
	}
	res.PeakRunRate = h.Meter.PeakRunRate()
	res.Offered = h.Generator.Offered()
	res.Rejected = h.Generator.Rejected()
	res.FinalAllocation = h.Allocation()
	return res
}
