// Package exper implements the experiment harness: one function per paper
// artefact (figure, equation, or quantitative claim), each running the
// full simulated flow and returning a structured result with a formatted
// table matching what the paper reports. The repository-level benchmarks
// call these functions, so the printed rows and the benchmark metrics
// always agree; cmd/flowerbench farms out the Scenario Lab grids in
// lab.go.
package exper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/compute"
	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/timeseries"
)

// rawSeries reads the full stored series of one metric through the handle
// tier, or nil when the metric has never been published — the experiment
// harness reads results after a run, so the lookup happens once per
// experiment, not per tick.
func rawSeries(s *metricstore.Store, ns, name string, dims map[string]string) *timeseries.Series {
	h, ok := s.Lookup(ns, name, dims)
	if !ok {
		return nil
	}
	return h.Window(metricstore.WindowQuery{})
}

// fig2Spec is the Fig. 2 measurement setup: a statically (amply)
// provisioned flow under a varying click-stream so that neither layer
// saturates and the load signal passes through linearly.
func fig2Spec(seed int64) (flow.Spec, error) {
	spec, err := flow.NewBuilder("clickstream").
		WithWorkload(flow.WorkloadSpec{
			Pattern: "sine",
			Base:    1500,
			Peak:    2800,
			Period:  flow.Duration(3 * time.Hour),
			Poisson: true,
			Seed:    seed,
		}).
		// Static allocations: ample shards and table capacity; 10 VMs so
		// the analytics layer runs in its linear region (peak 2800 rec/s
		// against a 10,000 rec/s cluster ≈ 28% CPU) and the fitted slope
		// lands at the paper's per-write-capacity magnitude: one VM
		// serves 1000 rec/s, so CPU% per record/min = 100/(10·1000·60)
		// ≈ 1.7e-4 ≈ Eq. 2's 2e-4.
		WithIngestion(50, 1, 50, flow.ControllerSpec{Type: flow.ControllerNone}).
		WithAnalytics(10, 1, 50, flow.ControllerSpec{Type: flow.ControllerNone}).
		WithStorage(2000, 50, 20000, flow.ControllerSpec{Type: flow.ControllerNone}).
		Build()
	if err != nil {
		return flow.Spec{}, err
	}
	return spec, nil
}

// Fig2Result reproduces Fig. 2: the correlation between the data arrival
// rate at the ingestion layer and the CPU load at the analytics layer over
// a ~550-minute trace.
type Fig2Result struct {
	Minutes     int
	Samples     int
	Correlation float64 // paper: 0.95
	Slope       float64
	Intercept   float64
}

// Table renders the result in the paper's terms.
func (r Fig2Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — ingestion arrival rate vs analytics CPU (%d min, %d aligned samples)\n", r.Minutes, r.Samples)
	fmt.Fprintf(&b, "  correlation coefficient: %.3f   (paper: 0.95)\n", r.Correlation)
	fmt.Fprintf(&b, "  linear fit: CPU ≈ %.6g·InputRecords + %.3g\n", r.Slope, r.Intercept)
	return b.String()
}

// Fig2 runs experiment E1.
func Fig2(seed int64) (Fig2Result, error) {
	spec, err := fig2Spec(seed)
	if err != nil {
		return Fig2Result{}, err
	}
	h, err := sim.New(spec, sim.Options{Step: 10 * time.Second, Seed: seed})
	if err != nil {
		return Fig2Result{}, err
	}
	const minutes = 550
	if _, err := h.Run(minutes * time.Minute); err != nil {
		return Fig2Result{}, err
	}
	in := rawSeries(h.Store, stream.Namespace, stream.MetricIncomingRecords,
		map[string]string{"StreamName": spec.Name})
	cpu := rawSeries(h.Store, compute.Namespace, compute.MetricCPUUtilization,
		map[string]string{"Topology": spec.Name})
	xs, ys := timeseries.AlignedValues(in, cpu, time.Minute)
	model, err := regress.Fit(xs, ys)
	if err != nil {
		return Fig2Result{}, err
	}
	return Fig2Result{
		Minutes:     minutes,
		Samples:     len(xs),
		Correlation: model.R,
		Slope:       model.Slope,
		Intercept:   model.Intercept,
	}, nil
}

// Eq2Result reproduces Eq. 2: the fitted dependency between ingestion
// write volume and analytics CPU, expressed per record/minute, plus the
// §3.1 worked example — the CPU needed to absorb one full shard
// (1,000 records/s).
type Eq2Result struct {
	Model           regress.Model
	CPUForFullShard float64 // predicted CPU% at one shard's max write rate
}

// Table renders the result.
func (r Eq2Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Eq. 2 — analytics CPU as a function of ingestion write volume\n")
	fmt.Fprintf(&b, "  CPU ≈ %.6g·WriteRecordsPerMin + %.3g   (paper: CPU ≈ 0.0002·WriteCapacity + 4.8)\n",
		r.Model.Slope, r.Model.Intercept)
	fmt.Fprintf(&b, "  R²=%.3f, slope t-stat=%.1f, n=%d\n", r.Model.R2, r.Model.TStat, r.Model.N)
	fmt.Fprintf(&b, "  predicted CPU to absorb one full shard (1000 rec/s): %.1f%%\n", r.CPUForFullShard)
	return b.String()
}

// Eq2 runs experiment E2 (same trace shape as Fig. 2, fresh run).
func Eq2(seed int64) (Eq2Result, error) {
	spec, err := fig2Spec(seed)
	if err != nil {
		return Eq2Result{}, err
	}
	h, err := sim.New(spec, sim.Options{Step: 10 * time.Second, Seed: seed})
	if err != nil {
		return Eq2Result{}, err
	}
	if _, err := h.Run(550 * time.Minute); err != nil {
		return Eq2Result{}, err
	}
	in := rawSeries(h.Store, stream.Namespace, stream.MetricIncomingRecords,
		map[string]string{"StreamName": spec.Name})
	cpu := rawSeries(h.Store, compute.Namespace, compute.MetricCPUUtilization,
		map[string]string{"Topology": spec.Name})
	xs, ys := timeseries.AlignedValues(in, cpu, time.Minute)
	// xs is records per 10s tick, averaged per minute: convert to
	// records/minute to make the slope comparable with Eq. 2's
	// per-write-capacity form.
	for i := range xs {
		xs[i] *= 6
	}
	model, err := regress.Fit(xs, ys)
	if err != nil {
		return Eq2Result{}, err
	}
	return Eq2Result{
		Model:           model,
		CPUForFullShard: model.Predict(1000 * 60),
	}, nil
}

// Fig4Result reproduces Fig. 4: the Pareto-optimal resource-share
// solutions of the §3.2 example.
type Fig4Result struct {
	Budget float64
	Plans  []PlanRow
}

// PlanRow is one provisioning plan with named columns.
type PlanRow struct {
	Shards, VMs, WCU float64
	HourlyCost       float64
}

// Table renders the Pareto front the way Fig. 4 tabulates it.
func (r Fig4Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — Pareto-optimal resource shares (budget $%.2f/h; paper finds 6 solutions)\n", r.Budget)
	fmt.Fprintf(&b, "  %-10s %-8s %-8s %-10s\n", "shards(I)", "vms(A)", "wcu(S)", "$/hour")
	for _, p := range r.Plans {
		fmt.Fprintf(&b, "  %-10.0f %-8.0f %-8.0f %-10.4f\n", p.Shards, p.VMs, p.WCU, p.HourlyCost)
	}
	return b.String()
}
