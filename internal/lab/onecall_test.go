package lab

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/timeseries"
)

// oneCallSummary is the summary a trial must report, computed from a
// harness that ran the trial's whole duration in one call and without
// summarize: the tracking error and settle time by a direct scan of the
// resampled per-minute CPU series, and the dependency by an ordinary
// least-squares fit of the per-minute aligned arrival and CPU series.
func oneCallSummary(t *testing.T, tr Trial, h *sim.Harness, res sim.Result) TrialSummary {
	t.Helper()
	raw := func(ns, name string, dims map[string]string) *timeseries.Series {
		mh, ok := h.Store.Lookup(ns, name, dims)
		if !ok {
			t.Fatalf("%s: metric %s/%s missing", tr.Name, ns, name)
		}
		return mh.Window(metricstore.WindowQuery{})
	}
	in := raw(stream.Namespace, stream.MetricIncomingRecords, map[string]string{"StreamName": tr.Spec.Name})
	cpu := raw(compute.Namespace, compute.MetricCPUUtilization, map[string]string{"Topology": tr.Spec.Name})

	want := TrialSummary{
		Trial:         tr,
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

	ana, _ := tr.Spec.Layer(flow.Analytics)
	ref := ana.Controller.Ref
	if ref <= 0 {
		ref = 60
	}
	vals := cpu.Resample(time.Minute, timeseries.AggMean).Values()
	for _, v := range vals {
		want.MeanAbsError += math.Abs(v - ref)
	}
	want.MeanAbsError /= float64(len(vals))
	from := int(tr.Spec.Workload.At.D() / time.Minute)
	for i := from; i < len(vals); i++ {
		inBand := true
		for _, v := range vals[i:] {
			if math.Abs(v-ref) > 10 {
				inBand = false
				break
			}
		}
		if inBand {
			m := float64(i - from)
			want.SettleMinutes = &m
			break
		}
	}

	xs, ys := timeseries.AlignedValues(in, cpu, time.Minute)
	model, err := regress.Fit(xs, ys)
	if err != nil {
		t.Fatalf("%s: fit: %v", tr.Name, err)
	}
	want.Dependency = &Dependency{
		Correlation: model.R,
		Slope:       model.Slope,
		Intercept:   model.Intercept,
		R2:          model.R2,
		Samples:     len(xs),
	}
	return want
}

// TestTrialMatchesOneCallRun pins what every paper artefact run as a lab
// grid rests on: a trial the engine runs as interleaved scheduler chunks
// (the last one partial here) summarises exactly — every float bit for
// bit — as one uninterrupted run of the trial's spec at its simulation
// seed. The grid spans a controller that settles after the step, a rule
// baseline, and a static flow that never settles, whose results must
// still encode as JSON.
func TestTrialMatchesOneCallRun(t *testing.T) {
	rule := flow.ControllerSpec{
		Type: flow.ControllerRule, Ref: 60, Window: flow.Duration(2 * time.Minute),
		High: 80, Low: 35, UpFactor: 1.5, DownFactor: 0.8, Cooldown: 2,
	}
	none := flow.ControllerSpec{Type: flow.ControllerNone}
	spec := Spec{
		Name:     "onecall",
		Peak:     4000,
		Duration: flow.Duration(125 * time.Minute),
		Seeds:    []int64{5},
		Workloads: []WorkloadVariant{{
			Name: "step",
			Workload: flow.WorkloadSpec{
				Pattern: "step", Base: 1000, Peak: 4000, At: flow.Duration(20 * time.Minute), Seed: 3,
			},
		}},
		Controllers: []ControllerVariant{
			{Name: "adaptive"},
			{Name: "rule", Layers: map[flow.LayerKind]flow.ControllerSpec{
				flow.Ingestion: rule, flow.Analytics: rule, flow.Storage: rule,
			}},
			{Name: "static", Layers: map[flow.LayerKind]flow.ControllerSpec{
				flow.Ingestion: none, flow.Analytics: none, flow.Storage: none,
			}},
		},
	}
	trials, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(2)
	defer e.Close()
	x, err := e.Submit(spec.Name, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-x.Done()
	res := x.Results()

	settled, unsettled := 0, 0
	for i, tr := range trials {
		h, err := sim.New(tr.Spec, sim.Options{Step: 10 * time.Second, Seed: tr.SimSeed})
		if err != nil {
			t.Fatal(err)
		}
		run, err := h.Run(spec.Duration.D())
		if err != nil {
			t.Fatal(err)
		}
		want := oneCallSummary(t, tr, h, run)
		got := res.Trials[i]
		if got.Status != TrialDone {
			t.Fatalf("%s: %s: %s", got.Name, got.Status, got.Error)
		}
		got.StartedAt, got.WallSeconds = time.Time{}, 0
		if !reflect.DeepEqual(got, want) {
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			t.Errorf("%s: lab trial summary differs from the one-call run\n lab: %s\n one: %s", tr.Name, gj, wj)
		}
		if want.SettleMinutes != nil {
			settled++
		} else {
			unsettled++
		}
	}
	if settled == 0 || unsettled == 0 {
		t.Fatalf("grid has %d settled and %d unsettled trials, want both kinds", settled, unsettled)
	}

	body, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("results do not encode: %v", err)
	}
	if n := strings.Count(string(body), `"settle_minutes"`); n != settled {
		t.Fatalf("results carry settle_minutes %d times, want %d (only the settled trials)", n, settled)
	}
	if n := strings.Count(string(body), `"dependency"`); n != len(trials) {
		t.Fatalf("results carry a dependency block %d times, want %d", n, len(trials))
	}
}
