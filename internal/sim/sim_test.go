package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/flow"
	"repro/internal/kvstore"
	"repro/internal/metricstore"
	"repro/internal/regress"
	"repro/internal/stream"
	"repro/internal/timeseries"
)

// managedSpec is a constant-load clickstream flow with adaptive controllers.
func managedSpec(t *testing.T, rate float64) flow.Spec {
	t.Helper()
	window := 2 * time.Minute
	spec, err := flow.NewBuilder("clicks").
		WithWorkload(flow.WorkloadSpec{Pattern: "constant", Base: rate}).
		WithIngestion(2, 1, 50, flow.DefaultAdaptive(60, window, 4)).
		WithAnalytics(2, 1, 50, flow.DefaultAdaptive(60, window, 4)).
		WithStorage(200, 50, 20000, flow.DefaultAdaptive(60, window, 400)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestNewValidatesSpec(t *testing.T) {
	if _, err := New(flow.Spec{}, Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestRunRejectsBadDuration(t *testing.T) {
	h, err := New(managedSpec(t, 500), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestDataFlowsEndToEnd(t *testing.T) {
	h, err := New(managedSpec(t, 1000), Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Run(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatal("no records offered")
	}
	if h.Table.ItemCount() == 0 {
		t.Fatal("no items reached the storage layer")
	}
	if res.Ticks != 60 {
		t.Fatalf("ticks = %d, want 60", res.Ticks)
	}
	if res.TotalCost <= 0 {
		t.Fatal("no cost metered")
	}
	// All three layers' metrics exist.
	for _, ns := range []string{stream.Namespace, compute.Namespace, kvstore.Namespace} {
		found := false
		for _, got := range h.Store.Namespaces() {
			if got == ns {
				found = true
			}
		}
		if !found {
			t.Fatalf("namespace %s missing from store", ns)
		}
	}
}

// TestItemCountMetricMatchesTable: the published Storage/KVStore
// ItemCount is the table's item count on the default (aggregate) write
// path, not just the per-record items, which that path never fills.
func TestItemCountMetricMatchesTable(t *testing.T) {
	spec, err := flow.DefaultClickstream(3000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(spec, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	points := 0
	last := math.NaN()
	h.Store.Each(func(id metricstore.MetricID, v timeseries.View) {
		if id.Namespace == kvstore.Namespace && id.Name == kvstore.MetricItemCount && v.Len() > 0 {
			points += v.Len()
			last = v.ValueAt(v.Len() - 1)
		}
	})
	want := h.Table.ItemCount()
	if points == 0 || want <= 0 || last != float64(want) {
		t.Fatalf("last ItemCount datapoint = %v (%d points), Table.ItemCount() = %d; want equal and > 0", last, points, want)
	}
}

func TestControllersDriveUtilizationTowardRef(t *testing.T) {
	// 4000 rec/s against 2 initial shards (2000/s capacity) overloads the
	// flow; adaptive controllers must scale all layers until utilisation
	// approaches the 60% reference.
	h, err := New(managedSpec(t, 4000), Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// Judge by the steady-state tail, not the whole run.
	tail := func(ns, metric, dimKey string) float64 {
		s := storeRaw(h.Store, ns, metric, map[string]string{dimKey: "clicks"})
		if s == nil {
			t.Fatalf("metric %s/%s missing", ns, metric)
		}
		return timeseries.Mean(s.TailN(60).Values())
	}
	ingUtil := tail(stream.Namespace, stream.MetricOfferedUtilization, "StreamName")
	cpuUtil := tail(compute.Namespace, compute.MetricCPUUtilization, "Topology")
	wcuUtil := tail(kvstore.Namespace, kvstore.MetricWriteUtilization, "TableName")
	for name, util := range map[string]float64{"ingestion": ingUtil, "analytics": cpuUtil, "storage": wcuUtil} {
		if math.Abs(util-60) > 15 {
			t.Errorf("%s steady-state utilisation = %.1f, want ≈60", name, util)
		}
	}
	// Allocations must have grown from the deliberately undersized start.
	alloc := h.Allocation()
	if alloc.Shards < 4 || alloc.VMs < 4 {
		t.Fatalf("allocations did not grow: %+v", alloc)
	}
}

func TestManagedBeatsStaticOnViolations(t *testing.T) {
	// Static undersized flow suffers persistent violations; managed one
	// recovers after the transient.
	static := managedSpec(t, 3000)
	for i := range static.Layers {
		static.Layers[i].Controller = flow.ControllerSpec{Type: flow.ControllerNone}
	}
	hStatic, err := New(static, Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	resStatic, err := hStatic.Run(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	hManaged, err := New(managedSpec(t, 3000), Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	resManaged, err := hManaged.Run(2 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	if resManaged.ViolationRate >= resStatic.ViolationRate {
		t.Fatalf("managed violation rate %.3f not better than static %.3f",
			resManaged.ViolationRate, resStatic.ViolationRate)
	}
	if resManaged.Actions[flow.Ingestion] == 0 && resManaged.Actions[flow.Analytics] == 0 {
		t.Fatal("managed run took no control actions")
	}
}

func TestDisableControlFreezesLayer(t *testing.T) {
	h, err := New(managedSpec(t, 4000), Options{
		Step:           10 * time.Second,
		DisableControl: []flow.LayerKind{flow.Ingestion},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Loops[flow.Ingestion]; ok {
		t.Fatal("ingestion loop built despite DisableControl")
	}
	if _, err := h.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if h.Stream.ShardCount() != 2 {
		t.Fatalf("disabled layer resized: shards = %d", h.Stream.ShardCount())
	}
	if h.Cluster.VMCount() == 2 {
		t.Fatal("enabled analytics layer never resized")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		spec := managedSpec(t, 2000)
		spec.Workload.Poisson = true
		h, err := New(spec, Options{Step: 10 * time.Second, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(30 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Offered != b.Offered || a.TotalCost != b.TotalCost ||
		a.FinalAllocation != b.FinalAllocation {
		t.Fatalf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestResultsAccumulateAcrossRuns(t *testing.T) {
	h, err := New(managedSpec(t, 1000), Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := h.Run(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h.Run(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Ticks != 2*r1.Ticks {
		t.Fatalf("ticks did not accumulate: %d then %d", r1.Ticks, r2.Ticks)
	}
	if r2.Duration != 20*time.Minute {
		t.Fatalf("duration = %v, want 20m", r2.Duration)
	}
	if r2.TotalCost <= r1.TotalCost {
		t.Fatal("cost did not accumulate")
	}
}

// TestFig2ShapeEmergesFromTheSimulation is the in-package version of
// experiment E1: with static resources and a varying workload, ingestion
// arrival rate and analytics CPU are strongly linearly related.
func TestFig2ShapeEmergesFromTheSimulation(t *testing.T) {
	spec := managedSpec(t, 0)
	spec.Workload = flow.WorkloadSpec{
		Pattern: "sine", Base: 1500, Peak: 2800,
		Period: flow.Duration(3 * time.Hour), Poisson: true, Seed: 7,
	}
	// Static, amply provisioned resources so neither layer saturates.
	for i := range spec.Layers {
		spec.Layers[i].Controller = flow.ControllerSpec{Type: flow.ControllerNone}
		spec.Layers[i].Initial = spec.Layers[i].Max
	}
	spec.Layers[2].Initial = 2000 // WCU
	h, err := New(spec, Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(9 * time.Hour); err != nil { // ≈550 minutes, as Fig. 2
		t.Fatal(err)
	}
	in := storeRaw(h.Store, stream.Namespace, stream.MetricIncomingRecords, map[string]string{"StreamName": "clicks"})
	cpu := storeRaw(h.Store, compute.Namespace, compute.MetricCPUUtilization, map[string]string{"Topology": "clicks"})
	xs, ys := timeseries.AlignedValues(in, cpu, time.Minute)
	r := regress.Pearson(xs, ys)
	if r < 0.9 {
		t.Fatalf("ingestion↔CPU correlation = %.3f, want ≥ 0.9 (paper reports 0.95)", r)
	}
	m, err := regress.Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slope <= 0 {
		t.Fatalf("slope = %v, want positive (Eq. 2 shape)", m.Slope)
	}
}

func TestPredictiveModeScalesAheadOfRamp(t *testing.T) {
	build := func() flow.Spec {
		spec := managedSpec(t, 0)
		spec.Workload = flow.WorkloadSpec{
			Pattern: "ramp", Base: 1000, Peak: 5000,
			At: flow.Duration(30 * time.Minute), Length: flow.Duration(time.Hour),
		}
		return spec
	}
	run := func(predictive bool) (Result, int) {
		opts := Options{Step: 10 * time.Second, Seed: 3}
		if predictive {
			opts.Predictive = PredictiveOptions{Enabled: true}
		}
		h, err := New(build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(2 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return res, h.PreScaleActions()
	}
	reactive, zeroActions := run(false)
	predictive, actions := run(true)
	if zeroActions != 0 {
		t.Fatalf("reactive run reported %d pre-scale actions", zeroActions)
	}
	if actions == 0 {
		t.Fatal("predictive run never pre-scaled")
	}
	if predictive.ViolationRate > reactive.ViolationRate {
		t.Fatalf("predictive violations %.3f worse than reactive %.3f",
			predictive.ViolationRate, reactive.ViolationRate)
	}
}
