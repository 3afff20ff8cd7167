package exper

import (
	"math"
	"strings"
	"testing"

	"repro/internal/flow"
)

// The long-running experiments (Fig2, Eq2, Controllers, CostSaving,
// RuleVsAdaptive) are exercised by the repository benchmarks; the unit
// tests here cover the fast experiments and the shared plumbing.

func TestFig4FindsThePaperFront(t *testing.T) {
	r, err := Fig4(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Plans) == 0 || len(r.Plans) > 6 {
		t.Fatalf("plans = %d, want 1..6 (paper: 6)", len(r.Plans))
	}
	for _, p := range r.Plans {
		if p.Shards > 5*p.VMs || 2*p.VMs > p.Shards || 2*p.Shards > p.WCU {
			t.Fatalf("plan %+v violates the §3.2 constraints", p)
		}
		if p.HourlyCost > r.Budget+1e-9 {
			t.Fatalf("plan %+v over budget", p)
		}
	}
	table := r.Table()
	if !strings.Contains(table, "Pareto-optimal") || !strings.Contains(table, "shards(I)") {
		t.Fatalf("table malformed:\n%s", table)
	}
}

func TestMonitorCoversAllPlatforms(t *testing.T) {
	r, err := Monitor(1)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Sections, " ")
	for _, want := range []string{"Ingestion/Stream", "Analytics/Compute", "Storage/KVStore", "Billing", "Workload/Generator"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("monitoring misses platform %s (have %v)", want, r.Sections)
		}
	}
	if r.Metrics < 15 {
		t.Fatalf("consolidated metrics = %d, want a rich view", r.Metrics)
	}
	if !strings.Contains(r.Table(), "all-in-one-place") {
		t.Fatal("table malformed")
	}
}

func TestControllerSpecFor(t *testing.T) {
	kinds := []flow.ControllerType{
		flow.ControllerAdaptive, flow.ControllerMemoryless, flow.ControllerFixedGain,
		flow.ControllerQuasiAdaptive, flow.ControllerRule,
	}
	for _, k := range kinds {
		cs := controllerSpecFor(k, 60, 120e9, 4)
		if cs.Type != k {
			t.Fatalf("type = %s, want %s", cs.Type, k)
		}
		spec, err := stepSpec(k, 1, 40*60e9)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s spec invalid: %v", k, err)
		}
	}
	if cs := controllerSpecFor("bogus", 60, 120e9, 4); cs.Type != flow.ControllerNone {
		t.Fatal("unknown kind should degrade to none")
	}

	// The farm's shoot-out runs the controllers experiment E4 compares:
	// every trial's per-layer controller is E4's for that kind and layer.
	trials := ControllerShootoutSpec(1).Controllers
	if len(trials) != len(kinds) {
		t.Fatalf("shoot-out has %d controller trials, want %d", len(trials), len(kinds))
	}
	for _, v := range trials {
		kind := flow.ControllerType(v.Name)
		spec, err := stepSpec(kind, 1, 40*60e9)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, l := range spec.Layers {
			if got := v.Layers[l.Kind]; got != l.Controller {
				t.Errorf("%s %s: shoot-out controller %+v, E4 uses %+v", kind, l.Kind, got, l.Controller)
			}
		}
	}
}

func TestResultTables(t *testing.T) {
	cr := ControllersResult{Rows: []ControllerRow{
		{Name: "adaptive", SettleMinutes: 12, ViolationRate: 0.05, MeanAbsError: 8, TotalCost: 1.2, Actions: 30},
		{Name: "fixed-gain", SettleMinutes: math.Inf(1), ViolationRate: 0.2, MeanAbsError: 20, TotalCost: 1.5, Actions: 40},
	}}
	table := cr.Table()
	if !strings.Contains(table, "never") {
		t.Fatal("infinite settling not rendered as 'never'")
	}
	if _, ok := cr.Row("adaptive"); !ok {
		t.Fatal("Row lookup failed")
	}
	if _, ok := cr.Row("nope"); ok {
		t.Fatal("bogus Row lookup succeeded")
	}

	cost := CostResult{Hours: 24, StaticPeakCost: 10, FullControlCost: 4, SingleTierCost: 6,
		FullSavingPct: 60, SingleSavingPct: 40}
	if !strings.Contains(cost.Table(), "static peak provisioning") {
		t.Fatal("cost table malformed")
	}

	rules := RulesResult{AdaptiveViolationRate: 0.02, RuleViolationRate: 0.3}
	if !strings.Contains(rules.Table(), "rule-based") {
		t.Fatal("rules table malformed")
	}

	f2 := Fig2Result{Minutes: 550, Samples: 540, Correlation: 0.96, Slope: 0.001, Intercept: 4}
	if !strings.Contains(f2.Table(), "0.95") {
		t.Fatal("fig2 table should cite the paper value")
	}
	e2 := Eq2Result{CPUForFullShard: 14.8}
	if !strings.Contains(e2.Table(), "0.0002") {
		t.Fatal("eq2 table should cite the paper equation")
	}
}

func TestFig2SpecIsStaticAndAmple(t *testing.T) {
	spec, err := fig2Spec(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range spec.Layers {
		if l.Controller.Type != flow.ControllerNone {
			t.Fatalf("fig2 layer %s has a controller; the measurement must be open-loop", l.Kind)
		}
	}
	ing, _ := spec.Layer(flow.Ingestion)
	if ing.Initial < 30 {
		t.Fatal("fig2 ingestion not amply provisioned")
	}
}
