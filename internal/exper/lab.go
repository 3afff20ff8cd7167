package exper

import (
	"fmt"
	"time"

	"repro/internal/flow"
	"repro/internal/lab"
	"repro/internal/nsga2"
	"repro/internal/share"
)

// Canonical Scenario Lab experiment grids: the studies the repository
// used to run as hand-written serial loops (examples/controllers,
// examples/pareto, the exper sweeps), expressed as declarative lab.Spec
// grids so the examples, the scorecard and any API caller can fan them
// out over the worker pool.

// controllerVariant spans all three layers with one controller type, built
// exactly as experiment E4 (Controllers) builds it: gains scaled to each
// layer's allocation magnitude (the storage layer holds hundreds of WCU
// where the others hold units).
func controllerVariant(kind flow.ControllerType) lab.ControllerVariant {
	window := 2 * time.Minute
	return lab.ControllerVariant{
		Name: string(kind),
		Layers: map[flow.LayerKind]flow.ControllerSpec{
			flow.Ingestion: controllerSpecFor(kind, 60, window, 4),
			flow.Analytics: controllerSpecFor(kind, 60, window, 4),
			flow.Storage:   controllerSpecFor(kind, 60, window, 400),
		},
	}
}

// ControllerShootoutSpec is the E4-style comparison as a farm: the
// paper's adaptive controller (Eq. 6–7) against the memoryless
// ablation, fixed-gain [12], quasi-adaptive [14] and provider-style
// rules [1], all on the same 4× step workload. The rule baseline is the
// deltas' reference.
func ControllerShootoutSpec(seed int64) lab.Spec {
	return lab.Spec{
		Name:     "controllers",
		Peak:     4000,
		Duration: flow.Duration(4 * time.Hour),
		Seeds:    []int64{seed},
		Workloads: []lab.WorkloadVariant{{
			Name: "step4x",
			Workload: flow.WorkloadSpec{
				Pattern: "step", Base: 1000, Peak: 4000,
				At: flow.Duration(40 * time.Minute), Seed: seed,
			},
		}},
		Controllers: []lab.ControllerVariant{
			controllerVariant(flow.ControllerAdaptive),
			controllerVariant(flow.ControllerMemoryless),
			controllerVariant(flow.ControllerFixedGain),
			controllerVariant(flow.ControllerQuasiAdaptive),
			controllerVariant(flow.ControllerRule),
		},
		Baseline: "step4x/" + string(flow.ControllerRule),
	}
}

// adaptiveEverywhere spans all three layers with the default adaptive
// controller at the given window, the Eq. 7 adaptation rate multiplied
// by gammaMult.
func adaptiveEverywhere(name string, window time.Duration, gammaMult float64) lab.ControllerVariant {
	layer := func(scale float64) flow.ControllerSpec {
		cs := flow.DefaultAdaptive(60, window, scale)
		cs.Gamma *= gammaMult
		return cs
	}
	return lab.ControllerVariant{
		Name: name,
		Layers: map[flow.LayerKind]flow.ControllerSpec{
			flow.Ingestion: layer(4),
			flow.Analytics: layer(4),
			flow.Storage:   layer(400),
		},
	}
}

// diurnalDay is the standard 9-hour diurnal click-stream day the sweeps
// run under.
func diurnalDay(seed int64) []lab.WorkloadVariant {
	return []lab.WorkloadVariant{{
		Name: "diurnal",
		Workload: flow.WorkloadSpec{
			Pattern: "diurnal", Base: 500, Peak: 3000,
			Period: flow.Duration(9 * time.Hour), Poisson: true, Seed: seed,
		},
	}}
}

// WindowSweepSpec is the monitoring-window sweep as a farm: the demo's
// "monitoring period" knob from 30s (reactive but churny) to 10m
// (smooth but laggy) across one diurnal day.
func WindowSweepSpec(seed int64) lab.Spec {
	s := lab.Spec{
		Name:      "windows",
		Peak:      3000,
		Duration:  flow.Duration(9 * time.Hour),
		Seeds:     []int64{seed},
		Workloads: diurnalDay(seed),
	}
	for _, w := range []time.Duration{30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute, 10 * time.Minute} {
		s.Controllers = append(s.Controllers, adaptiveEverywhere(w.String(), w, 1))
	}
	s.Baseline = "diurnal/2m0s"
	return s
}

// GammaSweepSpec is the elasticity-speed sweep as a farm: the Eq. 7
// adaptation rate γ from an eighth of the default (fixed-gain-like) to
// 16× (aggressive but jumpy).
func GammaSweepSpec(seed int64) lab.Spec {
	s := lab.Spec{
		Name:      "gamma",
		Peak:      3000,
		Duration:  flow.Duration(9 * time.Hour),
		Seeds:     []int64{seed},
		Workloads: diurnalDay(seed),
	}
	for _, mult := range []float64{0.125, 0.5, 1, 4, 16} {
		s.Controllers = append(s.Controllers,
			adaptiveEverywhere(fmt.Sprintf("%gx", mult), 2*time.Minute, mult))
	}
	s.Baseline = "diurnal/1x"
	return s
}

// WorkloadZooSpec opens the scenario-diversity axis: every generator
// pattern the workload package knows, under the default adaptive
// controllers, two hours each.
func WorkloadZooSpec(seed int64) lab.Spec {
	hour := flow.Duration(time.Hour)
	return lab.Spec{
		Name:     "workloads",
		Peak:     3000,
		Duration: flow.Duration(2 * time.Hour),
		Seeds:    []int64{seed},
		Workloads: []lab.WorkloadVariant{
			{Name: "constant", Workload: flow.WorkloadSpec{Pattern: "constant", Base: 1800, Poisson: true, Seed: seed}},
			{Name: "step", Workload: flow.WorkloadSpec{Pattern: "step", Base: 800, Peak: 2600, At: hour / 2, Seed: seed}},
			{Name: "ramp", Workload: flow.WorkloadSpec{Pattern: "ramp", Base: 500, Peak: 2800, At: hour / 2, Length: hour, Seed: seed}},
			{Name: "sine", Workload: flow.WorkloadSpec{Pattern: "sine", Base: 1200, Peak: 2600, Period: flow.Duration(3 * time.Hour), Poisson: true, Seed: seed}},
			{Name: "diurnal", Workload: flow.WorkloadSpec{Pattern: "diurnal", Base: 500, Peak: 3000, Period: flow.Duration(9 * time.Hour), Poisson: true, Seed: seed}},
			{Name: "spike", Workload: flow.WorkloadSpec{Pattern: "spike", Base: 400, Peak: 1500, Period: flow.Duration(24 * time.Hour), At: hour, Length: flow.Duration(45 * time.Minute), Factor: 5, Poisson: true, Seed: seed}},
		},
		Baseline: "constant",
	}
}

// SharePlanSpec runs the §3.2 Resource Share Analyzer on the paper's
// example problem and turns every Pareto-optimal provisioning plan into
// an allocation variant of one farm, so the planned front can be
// validated against measured (cost, violation) outcomes — the
// measured-Pareto answer to Fig. 4's planned one. It returns the
// experiment plus the plans it encodes.
func SharePlanSpec(seed int64, budget float64) (lab.Spec, []share.Plan, error) {
	problem := share.PaperExampleProblem(budget, 0.015, 0.10, 0.00065)
	plans, err := share.Analyze(problem, nsga2.Config{PopSize: 120, Generations: 250, Seed: seed})
	if err != nil {
		return lab.Spec{}, nil, err
	}
	// The plans may start any layer below the default flow's minimum
	// allocation (the share problem allows one unit), so the base flow's
	// floors drop to match.
	base, err := flow.DefaultClickstream(3000)
	if err != nil {
		return lab.Spec{}, nil, err
	}
	for i := range base.Layers {
		base.Layers[i].Min = 1
	}
	s := lab.Spec{
		Name:     "pareto",
		Base:     &base,
		Duration: flow.Duration(90 * time.Minute),
		Seeds:    []int64{seed},
		Workloads: []lab.WorkloadVariant{{
			Name:     "constant",
			Workload: flow.WorkloadSpec{Pattern: "constant", Base: 1800, Poisson: true, Seed: seed},
		}},
	}
	for _, p := range plans {
		s.Allocations = append(s.Allocations, lab.AllocationVariant{
			Name: fmt.Sprintf("%.0fsh-%.0fvm-%.0fwcu", p.Amounts[0], p.Amounts[1], p.Amounts[2]),
			Initial: map[flow.LayerKind]float64{
				flow.Ingestion: p.Amounts[0],
				flow.Analytics: p.Amounts[1],
				flow.Storage:   p.Amounts[2],
			},
		})
	}
	return s, plans, nil
}
