package exper

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/lab"
)

// The long-running experiments (Fig2, Controllers, CostSaving,
// RuleVsAdaptive) are exercised by the repository benchmarks; the unit
// tests here cover the grids' shape, the reducers and the shared plumbing.

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
	}
	if cs := controllerSpecFor("bogus", 60, 120e9, 4); cs.Type != flow.ControllerNone {
		t.Fatal("unknown kind should degrade to none")
	}

	// E4 is the shoot-out grid: one valid trial per kind, every layer
	// driven by that kind's controller at the layer's gain scale.
	trials, err := ControllerShootoutSpec(1).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != len(kinds) {
		t.Fatalf("shoot-out has %d trials, want %d", len(trials), len(kinds))
	}
	for i, tr := range trials {
		if tr.Controller != string(kinds[i]) {
			t.Fatalf("trial %d runs %s, want %s", i, tr.Controller, kinds[i])
		}
		for _, l := range tr.Spec.Layers {
			scale := 4.0
			if l.Kind == flow.Storage {
				scale = 400
			}
			if want := controllerSpecFor(kinds[i], 60, 2*time.Minute, scale); l.Controller != want {
				t.Errorf("%s %s: controller %+v, want %+v", tr.Name, l.Kind, l.Controller, want)
			}
		}
	}
}

func TestReducers(t *testing.T) {
	settle := 12.0
	shootout := lab.Results{Trials: []lab.TrialSummary{
		{Trial: lab.Trial{Controller: "adaptive"}, SettleMinutes: &settle, MeanAbsError: 3,
			Actions: map[flow.LayerKind]int{flow.Analytics: 2, flow.Storage: 1}},
		{Trial: lab.Trial{Controller: "rule"}},
	}}
	cr := controllersResult(shootout)
	if a, _ := cr.Row("adaptive"); a.SettleMinutes != 12 || a.Actions != 3 || a.MeanAbsError != 3 {
		t.Fatalf("adaptive row = %+v", a)
	}
	if r, _ := cr.Row("rule"); !math.IsInf(r.SettleMinutes, 1) {
		t.Fatalf("unsettled trial reduced to settle %v, want +Inf", r.SettleMinutes)
	}

	cost := costResult(lab.Results{Trials: []lab.TrialSummary{
		{Trial: lab.Trial{Controller: "static"}, TotalCost: 10},
		{Trial: lab.Trial{Controller: "analytics"}, TotalCost: 6},
		{Trial: lab.Trial{Controller: "all"}, TotalCost: 4},
	}}, 24)
	if cost.FullSavingPct != 60 || cost.SingleSavingPct != 40 {
		t.Fatalf("savings %v%% / %v%%, want 60%% / 40%%", cost.FullSavingPct, cost.SingleSavingPct)
	}

	if _, err := fig2Result(lab.Results{Trials: []lab.TrialSummary{{}}}); err == nil {
		t.Fatal("fig2 reduced a trial without a dependency fit")
	}
	slope, intercept := 0.0012, 4.8
	f2, err := fig2Result(lab.Results{Trials: []lab.TrialSummary{{
		Dependency: &lab.Dependency{Correlation: 0.99, Slope: slope, Intercept: intercept, R2: 0.98, Samples: 550},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if eq2 := slope / 6; f2.Eq2Slope != eq2 || f2.CPUForFullShard != intercept+eq2*60000 {
		t.Fatalf("Eq. 2 form = %v, full shard %v", f2.Eq2Slope, f2.CPUForFullShard)
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

	f2 := Fig2Result{Minutes: 550, Samples: 540, Correlation: 0.96, Slope: 0.001, Intercept: 4, CPUForFullShard: 14.8}
	if !strings.Contains(f2.Table(), "0.95") {
		t.Fatal("fig2 table should cite the paper value")
	}
	if !strings.Contains(f2.Table(), "0.0002") {
		t.Fatal("fig2 table should cite the paper's Eq. 2")
	}
}

func TestFig2SpecIsStaticAndAmple(t *testing.T) {
	spec, err := fig2Spec(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range spec.Base.Layers {
		if l.Controller.Type != flow.ControllerNone {
			t.Fatalf("fig2 layer %s has a controller; the measurement must be open-loop", l.Kind)
		}
	}
	ing, _ := spec.Base.Layer(flow.Ingestion)
	if ing.Initial < 30 {
		t.Fatal("fig2 ingestion not amply provisioned")
	}
	if n := spec.TrialCount(); n != 1 {
		t.Fatalf("fig2 grid has %d trials, want one trace", n)
	}
}
