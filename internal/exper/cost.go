package exper

import (
	"time"

	"repro/internal/flow"
	"repro/internal/lab"
)

// CostResult reproduces the §1 claim (after [15]) that scaling *all*
// tiers of a flow saves far more of the peak-provisioned cost than scaling
// a single tier: "the ability to scale down both web servers and cache
// tier leads to 65% saving of the peak operational cost, compared to 45%
// if we only consider resizing the web tier".
type CostResult struct {
	Hours float64

	StaticPeakCost  float64 // all layers statically sized for peak
	FullControlCost float64 // Flower managing all three layers
	SingleTierCost  float64 // only the analytics tier managed

	FullSavingPct   float64 // paper analogue: ≈65%
	SingleSavingPct float64 // paper analogue: ≈45%

	FullViolationRate   float64
	SingleViolationRate float64
}

// costSpec is the E5 grid: the diurnal flow with peak-sized static
// allocations, and controller variants that leave every layer static,
// manage only the analytics tier, or manage all three.
func costSpec(seed int64) (lab.Spec, error) {
	// Peak 3000 rec/s: peak-sized static allocations with ~40% headroom
	// (the over-provisioning peak sizing implies): 7 shards, 7 VMs,
	// 700 WCU (writes are 10% of arrivals with 1 KiB items, so 300/s at
	// peak).
	none := flow.ControllerSpec{Type: flow.ControllerNone}
	base, err := flow.NewBuilder("clickstream").
		WithWorkload(flow.WorkloadSpec{
			Pattern: "diurnal",
			Base:    300,
			Peak:    3000,
			Period:  flow.Duration(24 * time.Hour),
			Poisson: true,
			Seed:    seed,
		}).
		WithIngestion(7, 1, 50, none).
		WithAnalytics(7, 1, 50, none).
		WithStorage(700, 50, 20000, none).
		Build()
	if err != nil {
		return lab.Spec{}, err
	}
	window := 2 * time.Minute
	managed := func(name string, kinds ...flow.LayerKind) lab.ControllerVariant {
		v := lab.ControllerVariant{Name: name, Layers: map[flow.LayerKind]flow.ControllerSpec{}}
		for _, k := range kinds {
			scale := 4.0
			if k == flow.Storage {
				scale = 400
			}
			v.Layers[k] = flow.DefaultAdaptive(60, window, scale)
		}
		return v
	}
	return lab.Spec{
		Name:     "cost",
		Base:     &base,
		Duration: flow.Duration(24 * time.Hour),
		Seeds:    []int64{seed},
		Controllers: []lab.ControllerVariant{
			managed("static"),
			managed("analytics", flow.Analytics),
			managed("all", flow.Ingestion, flow.Analytics, flow.Storage),
		},
		Baseline: "static",
	}, nil
}

// CostSaving runs experiment E5: 24 hours of diurnal load under the three
// provisioning regimes.
func CostSaving(seed int64) (CostResult, error) {
	spec, err := costSpec(seed)
	if err != nil {
		return CostResult{}, err
	}
	res, err := Run(spec)
	if err != nil {
		return CostResult{}, err
	}
	return costResult(res, spec.Duration.D().Hours()), nil
}

// costResult reduces the E5 grid to the savings comparison.
func costResult(res lab.Results, hours float64) CostResult {
	trials := byController(res)
	static, single, full := trials["static"], trials["analytics"], trials["all"]
	out := CostResult{
		Hours:               hours,
		StaticPeakCost:      static.TotalCost,
		FullControlCost:     full.TotalCost,
		SingleTierCost:      single.TotalCost,
		FullViolationRate:   full.ViolationRate,
		SingleViolationRate: single.ViolationRate,
	}
	if static.TotalCost > 0 {
		out.FullSavingPct = (1 - full.TotalCost/static.TotalCost) * 100
		out.SingleSavingPct = (1 - single.TotalCost/static.TotalCost) * 100
	}
	return out
}

// RulesResult reproduces the §1 critique of rule-based autoscaling: under
// an unforeseen flash crowd, threshold rules react late and oscillate,
// where the adaptive controller tracks the reference.
type RulesResult struct {
	AdaptiveViolationRate float64
	RuleViolationRate     float64
	AdaptiveActions       int
	RuleActions           int
	AdaptiveCost          float64
	RuleCost              float64
}

// rulesSpec is the E6 grid: the default flow under a diurnal day with a
// 5× flash crowd, driven by the adaptive controllers and by the rule
// baseline.
func rulesSpec(seed int64) lab.Spec {
	return lab.Spec{
		Name:     "rules",
		Peak:     1500,
		Duration: flow.Duration(8 * time.Hour),
		Seeds:    []int64{seed},
		Workloads: []lab.WorkloadVariant{{
			Name: "spike",
			Workload: flow.WorkloadSpec{
				Pattern: "spike",
				Base:    400,
				Peak:    1500,
				Period:  flow.Duration(24 * time.Hour),
				At:      flow.Duration(3 * time.Hour),
				Length:  flow.Duration(45 * time.Minute),
				Factor:  5,
				Poisson: true,
				Seed:    seed,
			},
		}},
		Controllers: []lab.ControllerVariant{
			controllerVariant(flow.ControllerAdaptive),
			controllerVariant(flow.ControllerRule),
		},
	}
}

// RuleVsAdaptive runs experiment E6: a diurnal day with a 5× flash crowd.
func RuleVsAdaptive(seed int64) (RulesResult, error) {
	res, err := Run(rulesSpec(seed))
	if err != nil {
		return RulesResult{}, err
	}
	return rulesResult(res), nil
}

// rulesResult reduces the E6 grid to the policy comparison.
func rulesResult(res lab.Results) RulesResult {
	trials := byController(res)
	adaptive, rule := trials[string(flow.ControllerAdaptive)], trials[string(flow.ControllerRule)]
	return RulesResult{
		AdaptiveViolationRate: adaptive.ViolationRate,
		RuleViolationRate:     rule.ViolationRate,
		AdaptiveActions:       actions(adaptive),
		RuleActions:           actions(rule),
		AdaptiveCost:          adaptive.TotalCost,
		RuleCost:              rule.TotalCost,
	}
}
