package sim

import (
	"time"

	"repro/internal/flow"
	"repro/internal/forecast"
	"repro/internal/metricstore"
	"repro/internal/timeseries"
	"repro/internal/workload"
)

// Predictive pre-provisioning (experiment E8). The paper's controllers are
// purely reactive; its introduction, however, motivates elasticity with
// "unplanned or unforeseen changes in demand" that reactive systems answer
// only after the damage. The companion work behind reference [9] pairs the
// controllers with workload prediction. This file implements that pairing
// as an optional harness feature: a trend forecaster (Holt) watches the
// arrival rate and raises each layer's allocation *ahead* of predicted
// load; the reactive loops still own steady-state tracking and all
// scale-downs.

// The provisioner's tuning. No caller has needed another value.
const (
	// forecastWindow is the observation/actuation cadence.
	forecastWindow = 2 * time.Minute
	// forecastHeadroom multiplies the predicted requirement.
	forecastHeadroom = 1.1
	// forecastTargetUtil is the utilisation the predicted load should
	// produce, matching the reactive reference.
	forecastTargetUtil = 60
)

// forecastHorizon is how far ahead the provisioner sizes each layer: at
// least two windows, and otherwise one window past the analytics layer's
// provision delay, so capacity ordered for a forecast is running when the
// load arrives.
func forecastHorizon(spec flow.Spec) time.Duration {
	ana, _ := spec.Layer(flow.Analytics)
	delay := ana.ProvisionDelay.D()
	windows := (delay+forecastWindow-1)/forecastWindow + 1
	return forecastWindow * max(2, windows)
}

// predictiveProvisioner is the simtime.Ticker implementing the feature.
type predictiveProvisioner struct {
	h    *Harness
	pred forecast.Predictor
	// steps is the forecast horizon in windows.
	steps int

	sizerShards forecast.PredictiveSizer
	sizerVMs    forecast.PredictiveSizer
	sizerWCU    forecast.PredictiveSizer

	nextAt  time.Time
	started bool

	// offered is the arrival-rate metric handle, resolved lazily on first
	// measurement (the generator registers it on its first tick).
	offered *metricstore.Handle

	// Pre-provisioning floors: the allocations the forecast says the
	// horizon needs. The reactive loops' actuators clamp their commands to
	// at least these values while the floors are fresh, so a reactive
	// scale-down cannot retract capacity ordered for predicted load (the
	// reactive loop sees only current utilisation and would otherwise undo
	// the pre-scale before the load arrives). Floors expire after a window
	// without refresh, returning full authority to the loops.
	floorShards float64
	floorVMs    float64
	floorWCU    float64
	floorUntil  time.Time

	// PreScaleActions counts upward pre-provisioning actions taken.
	preScaleActions int
}

// floor returns the active pre-provisioning floor for the layer, or 0.
func (p *predictiveProvisioner) floor(kind flow.LayerKind, now time.Time) float64 {
	if now.After(p.floorUntil) {
		return 0
	}
	switch kind {
	case flow.Ingestion:
		return p.floorShards
	case flow.Analytics:
		return p.floorVMs
	case flow.Storage:
		return p.floorWCU
	}
	return 0
}

// prescaleFloor reports the harness's active predictive floor for a layer
// (0 when pre-provisioning is disabled or the floor has expired).
func (h *Harness) prescaleFloor(kind flow.LayerKind, now time.Time) float64 {
	if h.predictive == nil {
		return 0
	}
	return h.predictive.floor(kind, now)
}

// newPredictiveProvisioner derives per-layer unit capacities from the
// materialised flow: one shard absorbs 1,000 records/s; one VM absorbs
// VMCapacity/cost-per-tuple records/s; one WCU absorbs
// 1/output-selectivity arrival records/s (each output tuple is one
// ~256-byte item = one write unit).
func newPredictiveProvisioner(h *Harness) *predictiveProvisioner {
	ing, _ := h.spec.Layer(flow.Ingestion)
	ana, _ := h.spec.Layer(flow.Analytics)
	sto, _ := h.spec.Layer(flow.Storage)

	vmCap := ana.VMCapacityMsPerSec
	if vmCap <= 0 {
		vmCap = 1000
	}
	// The reference topology costs 1 CPU-ms per record; see New.
	vmUnit := vmCap / 1.0
	// Writes per arrival = output selectivity (0.1) × 1 unit per item.
	wcuUnit := 1 / 0.1

	holt, err := forecast.NewHolt(0.6, 0.3)
	if err != nil {
		panic(err) // parameters are compile-time constants in range
	}
	return &predictiveProvisioner{
		h:     h,
		pred:  holt,
		steps: int(forecastHorizon(h.spec) / forecastWindow),
		sizerShards: forecast.PredictiveSizer{
			UnitCapacity: 1000, TargetUtil: forecastTargetUtil,
			Headroom: forecastHeadroom, Min: ing.Min, Max: ing.Max,
		},
		sizerVMs: forecast.PredictiveSizer{
			UnitCapacity: vmUnit, TargetUtil: forecastTargetUtil,
			Headroom: forecastHeadroom, Min: ana.Min, Max: ana.Max,
		},
		sizerWCU: forecast.PredictiveSizer{
			UnitCapacity: wcuUnit, TargetUtil: forecastTargetUtil,
			Headroom: forecastHeadroom, Min: sto.Min, Max: sto.Max,
		},
	}
}

// Tick observes the arrival rate once per window and pre-provisions for
// the forecast horizon. It only ever scales *up*; scale-downs remain the
// reactive loops' job, so a wrong forecast costs money but never an
// outage.
func (p *predictiveProvisioner) Tick(now time.Time, step time.Duration) {
	if !p.started {
		p.nextAt = now.Add(forecastWindow - step)
		p.started = true
	}
	if now.Before(p.nextAt) {
		return
	}
	p.nextAt = now.Add(forecastWindow)

	rate, ok := p.windowRate(now)
	if !ok {
		return
	}
	p.pred.Observe(rate)
	if !p.pred.Ready() {
		return
	}
	predicted := p.pred.Forecast(p.steps)
	if predicted < 0 {
		predicted = 0
	}

	// Publish the floors first: they hold until the next refresh plus one
	// window of slack, so the reactive loops cannot retract pre-ordered
	// capacity in the meantime.
	p.floorShards = p.sizerShards.Size(predicted)
	p.floorVMs = p.sizerVMs.Size(predicted)
	p.floorWCU = p.sizerWCU.Size(predicted)
	p.floorUntil = now.Add(2 * forecastWindow)

	if want := int(p.floorShards); want > p.h.Stream.ShardCount() {
		if err := p.h.Stream.UpdateShardCount(want); err == nil {
			p.preScaleActions++
		}
	}
	if want := int(p.floorVMs); want > p.h.Cluster.VMCount() {
		if err := p.h.Cluster.SetVMCount(now, want); err == nil {
			p.preScaleActions++
		}
	}
	if want := p.floorWCU; want > p.h.Table.WCU() {
		if err := p.h.Table.SetWriteCapacity(want); err == nil {
			p.preScaleActions++
		}
	}
}

// windowRate returns the mean arrival rate (records/second) over the
// trailing window.
func (p *predictiveProvisioner) windowRate(now time.Time) (float64, bool) {
	if p.offered == nil {
		h, ok := p.h.Store.Lookup(workload.Namespace, workload.MetricOfferedRecords,
			map[string]string{"Generator": "clickstream"})
		if !ok {
			return 0, false
		}
		p.offered = h
	}
	perTick, n := p.offered.Stat(now.Add(-forecastWindow), now.Add(time.Nanosecond), timeseries.AggMean)
	if n == 0 {
		return 0, false
	}
	return perTick / p.h.opts.Step.Seconds(), true
}

// PreScaleActions reports how many predictive scale-ups have been applied.
func (h *Harness) PreScaleActions() int {
	if h.predictive == nil {
		return 0
	}
	return h.predictive.preScaleActions
}
