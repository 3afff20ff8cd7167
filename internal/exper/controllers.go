package exper

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/flow"
	"repro/internal/lab"
)

// ControllerRow is one controller's performance under the step workload.
type ControllerRow struct {
	Name string
	// SettleMinutes is how long after the step the analytics layer's CPU
	// stays within ±10 points of the reference (math.Inf(1) if never).
	SettleMinutes float64
	// ViolationRate is the fraction of ticks with any layer in violation.
	ViolationRate float64
	// MeanAbsError is the mean |CPU − ref| per minute over the whole run.
	MeanAbsError float64
	// TotalCost is the metered spend over the whole run.
	TotalCost float64
	// Actions is the number of applied resizes across all layers.
	Actions int
}

// ControllersResult reproduces the §3.3 comparison claim: Flower's
// adaptive controller versus the fixed-gain [12] and quasi-adaptive [14]
// baselines (evaluated in the companion paper [9]).
type ControllersResult struct {
	Rows []ControllerRow
}

// Row returns the named row.
func (r ControllersResult) Row(name string) (ControllerRow, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return ControllerRow{}, false
}

// Table renders the comparison.
func (r ControllersResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E4 — controller comparison on a 4× step workload (paper/[9]: adaptive wins)\n")
	fmt.Fprintf(&b, "  %-20s %-14s %-12s %-12s %-10s %-8s\n",
		"controller", "settle (min)", "viol. rate", "|err| (run)", "cost ($)", "actions")
	for _, row := range r.Rows {
		settle := fmt.Sprintf("%.0f", row.SettleMinutes)
		if math.IsInf(row.SettleMinutes, 1) {
			settle = "never"
		}
		fmt.Fprintf(&b, "  %-20s %-14s %-12.3f %-12.1f %-10.3f %-8d\n",
			row.Name, settle, row.ViolationRate, row.MeanAbsError, row.TotalCost, row.Actions)
	}
	return b.String()
}

// controllerSpecFor builds the per-layer controller spec of the given type
// with comparable parameters: all integral controllers start from the same
// initial gain; the rule baseline uses typical provider thresholds.
func controllerSpecFor(kind flow.ControllerType, ref float64, window time.Duration, scale float64) flow.ControllerSpec {
	base := flow.DefaultAdaptive(ref, window, scale)
	switch kind {
	case flow.ControllerAdaptive:
		return base
	case flow.ControllerMemoryless:
		base.Type = flow.ControllerMemoryless
		return base
	case flow.ControllerFixedGain:
		return flow.ControllerSpec{
			Type: flow.ControllerFixedGain, Ref: ref,
			Window: flow.Duration(window), DeadBand: base.DeadBand,
			L: base.L0,
		}
	case flow.ControllerQuasiAdaptive:
		return flow.ControllerSpec{
			Type: flow.ControllerQuasiAdaptive, Ref: ref,
			Window: flow.Duration(window), DeadBand: base.DeadBand,
			Forgetting: 0.95,
		}
	case flow.ControllerRule:
		return flow.ControllerSpec{
			Type: flow.ControllerRule, Ref: ref,
			Window: flow.Duration(window),
			High:   80, Low: 35, UpFactor: 1.5, DownFactor: 0.8, Cooldown: 2,
		}
	default:
		return flow.ControllerSpec{Type: flow.ControllerNone}
	}
}

// Controllers runs experiment E4: the controller shoot-out grid
// (ControllerShootoutSpec), one row per controller type.
func Controllers(seed int64) (ControllersResult, error) {
	res, err := Run(ControllerShootoutSpec(seed))
	if err != nil {
		return ControllersResult{}, err
	}
	return controllersResult(res), nil
}

// controllersResult reduces the shoot-out's trials to E4's rows.
func controllersResult(res lab.Results) ControllersResult {
	var out ControllersResult
	for _, tr := range res.Trials {
		settle := math.Inf(1)
		if tr.SettleMinutes != nil {
			settle = *tr.SettleMinutes
		}
		out.Rows = append(out.Rows, ControllerRow{
			Name:          tr.Controller,
			SettleMinutes: settle,
			ViolationRate: tr.ViolationRate,
			MeanAbsError:  tr.MeanAbsError,
			TotalCost:     tr.TotalCost,
			Actions:       actions(tr),
		})
	}
	return out
}
