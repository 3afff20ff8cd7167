package lab

import (
	"math"
	"time"

	"repro/internal/compute"
	"repro/internal/deps"
	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/nsga2"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/timeseries"
)

// TrialStatus is one trial's lifecycle state.
type TrialStatus string

const (
	TrialPending   TrialStatus = "pending"
	TrialRunning   TrialStatus = "running"
	TrialDone      TrialStatus = "done"
	TrialFailed    TrialStatus = "failed"
	TrialCancelled TrialStatus = "cancelled"
)

// Allocation is a trial's final per-layer resource allocation.
type Allocation struct {
	Shards int     `json:"shards"`
	VMs    int     `json:"vms"`
	WCU    float64 `json:"wcu"`
	RCU    float64 `json:"rcu"`
}

// TrialSummary is one trial's outcome: the trial coordinates plus the
// SLO-facing metrics of its run. Metric fields are meaningful only when
// Status is TrialDone.
type TrialSummary struct {
	Trial
	Status TrialStatus `json:"status"`
	// Error records why a failed trial died.
	Error string `json:"error,omitempty"`
	// StartedAt/WallSeconds time the trial's execution (wall clock);
	// overlapping intervals across trials are the worker pool's
	// concurrency made visible.
	StartedAt   time.Time `json:"started_at,omitzero"`
	WallSeconds float64   `json:"wall_seconds,omitempty"`

	// Simulated outcome.
	Ticks         int                        `json:"ticks,omitempty"`
	TotalCost     float64                    `json:"total_cost_usd"`
	PeakRunRate   float64                    `json:"peak_run_rate_usd_per_h"`
	ViolationRate float64                    `json:"violation_rate"`
	Violations    map[flow.LayerKind]int     `json:"violations,omitempty"`
	MeanUtil      map[flow.LayerKind]float64 `json:"mean_utilization_pct,omitempty"`
	Actions       map[flow.LayerKind]int     `json:"actions,omitempty"`
	// MeanAbsError is the mean |analytics CPU − ref| per minute — the
	// tracking-quality measure the controller sweeps report.
	MeanAbsError float64 `json:"mean_abs_error"`
	// SettleMinutes is how long after the workload's change point
	// (WorkloadSpec.At, or the start of the run when unset) the
	// analytics CPU came to stay within ±10 points of its reference for
	// the rest of the run — the shoot-out's settling time. Nil when the
	// run ends outside the band.
	SettleMinutes *float64 `json:"settle_minutes,omitempty"`
	// Dependency is the paper's workload-dependency fit (§3.1, Fig. 2)
	// of analytics CPU on ingestion arrivals over the trial's run. Nil
	// when no line can be fitted, as under a constant non-Poisson load.
	Dependency *Dependency `json:"dependency,omitempty"`
	Offered    int64       `json:"offered_records"`
	Rejected   int64       `json:"rejected_records"`
	Final      Allocation  `json:"final_allocation"`
}

// summarize condenses a finished harness run into the trial's summary
// metrics.
func summarize(t Trial, h *sim.Harness, res sim.Result) TrialSummary {
	out := TrialSummary{
		Trial:         t,
		Status:        TrialDone,
		Ticks:         res.Ticks,
		TotalCost:     res.TotalCost,
		PeakRunRate:   res.PeakRunRate,
		ViolationRate: res.ViolationRate,
		Violations:    res.Violations,
		MeanUtil:      res.MeanUtil,
		Actions:       res.Actions,
		Offered:       res.Offered,
		Rejected:      res.Rejected,
		Final: Allocation{
			Shards: res.FinalAllocation.Shards,
			VMs:    res.FinalAllocation.VMs,
			WCU:    res.FinalAllocation.WCU,
			RCU:    res.FinalAllocation.RCU,
		},
	}
	out.MeanAbsError, out.SettleMinutes = analyticsTracking(t.Spec, h)
	out.Dependency = arrivalDependency(t.Spec, h)
	return out
}

// Dependency is the Eq. 1 fit CPU ≈ Slope·arrivals + Intercept of the
// analytics layer's CPU utilisation (%) on the ingestion layer's arrivals
// (records per step), aligned per minute with no lag — the measurement
// behind the paper's Fig. 2 correlation and Eq. 2.
type Dependency struct {
	Correlation float64 `json:"correlation"`
	Slope       float64 `json:"slope"`
	Intercept   float64 `json:"intercept"`
	R2          float64 `json:"r2"`
	Samples     int     `json:"samples"`
}

// arrivalDependency fits the trial's arrival→analytics-CPU dependency, or
// returns nil when the series are missing or cannot be fitted.
func arrivalDependency(spec flow.Spec, h *sim.Harness) *Dependency {
	a := deps.Analyzer{Store: h.Store, MaxLag: -1}
	d, err := a.Analyze(
		deps.MetricRef{Layer: deps.Ingestion, Namespace: stream.Namespace, Name: stream.MetricIncomingRecords,
			Dimensions: map[string]string{"StreamName": spec.Name}},
		deps.MetricRef{Layer: deps.Analytics, Namespace: compute.Namespace, Name: compute.MetricCPUUtilization,
			Dimensions: map[string]string{"Topology": spec.Name}})
	if err != nil {
		return nil
	}
	return &Dependency{
		Correlation: d.Model.R,
		Slope:       d.Model.Slope,
		Intercept:   d.Model.Intercept,
		R2:          d.Model.R2,
		Samples:     d.Samples,
	}
}

// settleBand is how far (in CPU points) the analytics layer may stray
// from its reference and still count as settled.
const settleBand = 10

// analyticsTracking measures how well the analytics layer tracked its
// reference over per-minute samples: the mean |CPU − ref| over the whole
// run, and the minutes from the workload's change point until the CPU
// stays within settleBand of ref (nil if it ends outside). Flows without
// an analytics controller are measured against the default 60%
// reference.
func analyticsTracking(spec flow.Spec, h *sim.Harness) (mean float64, settle *float64) {
	ref := 60.0
	if ana, ok := spec.Layer(flow.Analytics); ok && ana.Controller.Ref > 0 {
		ref = ana.Controller.Ref
	}
	cpu, ok := h.Store.Lookup(compute.Namespace, compute.MetricCPUUtilization,
		map[string]string{"Topology": spec.Name})
	if !ok {
		return 0, nil
	}
	vals := cpu.Window(metricstore.WindowQuery{Period: time.Minute, Stat: timeseries.AggMean}).Values()
	if len(vals) == 0 {
		return 0, nil
	}
	sum, lastOut := 0.0, -1
	for i, v := range vals {
		e := math.Abs(v - ref)
		sum += e
		if e > settleBand {
			lastOut = i
		}
	}
	from := int(spec.Workload.At.D() / time.Minute)
	if settled := max(from, lastOut+1); settled < len(vals) {
		m := float64(settled - from)
		settle = &m
	}
	return sum / float64(len(vals)), settle
}

// Progress counts an experiment's trials by state. MaxConcurrent is the
// highest number of this experiment's trials that were in flight
// (started, not yet settled) simultaneously. Trials interleave as chunked
// scheduler jobs, so in-flight overlap typically spans the whole grid
// while the instantaneous execution overlap stays bounded by the
// scheduler's capacity.
type Progress struct {
	Total         int `json:"total"`
	Pending       int `json:"pending"`
	Running       int `json:"running"`
	Done          int `json:"done"`
	Failed        int `json:"failed"`
	Cancelled     int `json:"cancelled"`
	MaxConcurrent int `json:"max_concurrent"`
}

// TrialRef points at one trial with the value that ranked it.
type TrialRef struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// ParetoPoint is one trial on the cross-trial Pareto front over
// (cost, violation rate), both minimised.
type ParetoPoint struct {
	Name          string  `json:"name"`
	TotalCost     float64 `json:"total_cost_usd"`
	ViolationRate float64 `json:"violation_rate"`
}

// Delta compares one trial against the experiment's baseline trial.
type Delta struct {
	Name string `json:"name"`
	// CostPct is the cost change relative to the baseline in percent
	// (negative: cheaper than baseline).
	CostPct float64 `json:"cost_pct"`
	// ViolationDelta is the absolute violation-rate difference.
	ViolationDelta float64 `json:"violation_delta"`
}

// Aggregates are the cross-trial statistics over completed trials.
type Aggregates struct {
	Completed         int       `json:"completed"`
	MeanCost          float64   `json:"mean_cost_usd"`
	MeanViolationRate float64   `json:"mean_violation_rate"`
	BestCost          *TrialRef `json:"best_cost,omitempty"`
	WorstCost         *TrialRef `json:"worst_cost,omitempty"`
	BestViolation     *TrialRef `json:"best_violation,omitempty"`
	WorstViolation    *TrialRef `json:"worst_violation,omitempty"`
	// Pareto is the non-dominated set over (cost, violation rate),
	// extracted with nsga2.NonDominated — the §3.2 front idea applied to
	// measured outcomes instead of planned allocations.
	Pareto []ParetoPoint `json:"pareto,omitempty"`
	// Baseline names the trial Deltas compare against.
	Baseline string  `json:"baseline,omitempty"`
	Deltas   []Delta `json:"deltas,omitempty"`
}

// Results is an experiment's full outcome: every trial's summary (in
// grid order, whatever its state) plus aggregates over the completed
// ones. A cancelled experiment still reports the trials that finished
// before the cancellation.
type Results struct {
	Trials     []TrialSummary `json:"trials"`
	Aggregates Aggregates     `json:"aggregates"`
}

// aggregate computes the cross-trial statistics. baseline is the
// requested baseline trial name ("" selects the first completed trial).
func aggregate(trials []TrialSummary, baseline string) Aggregates {
	var done []TrialSummary
	for _, t := range trials {
		if t.Status == TrialDone {
			done = append(done, t)
		}
	}
	agg := Aggregates{Completed: len(done)}
	if len(done) == 0 {
		return agg
	}

	objs := make([][]float64, len(done))
	for i, t := range done {
		agg.MeanCost += t.TotalCost
		agg.MeanViolationRate += t.ViolationRate
		objs[i] = []float64{t.TotalCost, t.ViolationRate}
	}
	agg.MeanCost /= float64(len(done))
	agg.MeanViolationRate /= float64(len(done))

	best := func(better func(a, b TrialSummary) bool, value func(TrialSummary) float64) *TrialRef {
		pick := done[0]
		for _, t := range done[1:] {
			if better(t, pick) {
				pick = t
			}
		}
		return &TrialRef{Name: pick.Name, Value: value(pick)}
	}
	cost := func(t TrialSummary) float64 { return t.TotalCost }
	viol := func(t TrialSummary) float64 { return t.ViolationRate }
	agg.BestCost = best(func(a, b TrialSummary) bool { return a.TotalCost < b.TotalCost }, cost)
	agg.WorstCost = best(func(a, b TrialSummary) bool { return a.TotalCost > b.TotalCost }, cost)
	agg.BestViolation = best(func(a, b TrialSummary) bool { return a.ViolationRate < b.ViolationRate }, viol)
	agg.WorstViolation = best(func(a, b TrialSummary) bool { return a.ViolationRate > b.ViolationRate }, viol)

	for _, i := range nsga2.NonDominated(objs) {
		agg.Pareto = append(agg.Pareto, ParetoPoint{
			Name:          done[i].Name,
			TotalCost:     done[i].TotalCost,
			ViolationRate: done[i].ViolationRate,
		})
	}

	// The delta reference is the named baseline, defaulting to the
	// grid-first trial — pinned by grid position, not completion order —
	// and deltas are withheld until it completes, so mid-run polls never
	// compare against whichever trial happened to finish first and flip
	// reference later. Spec validation guarantees a named baseline
	// exists in the grid.
	if baseline == "" {
		baseline = trials[0].Name
	}
	var base TrialSummary
	found := false
	for _, t := range done {
		if t.Name == baseline {
			base, found = t, true
			break
		}
	}
	if !found {
		return agg
	}
	agg.Baseline = base.Name
	for _, t := range done {
		if t.Name == base.Name {
			continue
		}
		d := Delta{Name: t.Name, ViolationDelta: t.ViolationRate - base.ViolationRate}
		if base.TotalCost > 0 {
			d.CostPct = (t.TotalCost/base.TotalCost - 1) * 100
		}
		agg.Deltas = append(agg.Deltas, d)
	}
	return agg
}
