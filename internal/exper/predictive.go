package exper

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/flow"
	"repro/internal/sim"
)

// PredictiveResult is experiment E8: reactive-only Flower versus Flower
// plus trend-forecast pre-provisioning, on a steep traffic ramp with a
// realistic analytics boot delay — the "unplanned or unforeseen changes in
// demand" scenario of §1. A correct forecaster orders capacity before the
// load arrives and absorbs the ramp with materially fewer SLO violations.
type PredictiveResult struct {
	ReactiveViolationRate   float64
	PredictiveViolationRate float64
	ReactiveCost            float64
	PredictiveCost          float64
	PreScaleActions         int
}

// Table renders the comparison.
func (r PredictiveResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E8 — reactive vs predictive elasticity on an 8× ten-minute ramp (5 min VM boot)\n")
	fmt.Fprintf(&b, "  %-26s %-12s %-10s\n", "policy", "viol. rate", "cost ($)")
	fmt.Fprintf(&b, "  %-26s %-12.3f %-10.3f\n", "reactive (paper)", r.ReactiveViolationRate, r.ReactiveCost)
	fmt.Fprintf(&b, "  %-26s %-12.3f %-10.3f\n", "reactive + Holt forecast", r.PredictiveViolationRate, r.PredictiveCost)
	fmt.Fprintf(&b, "  (%d predictive scale-ups applied)\n", r.PreScaleActions)
	return b.String()
}

// Predictive runs experiment E8.
func Predictive(seed int64) (PredictiveResult, error) {
	window := 2 * time.Minute
	// The analytics layer carries a realistic instance-boot delay:
	// reactive scaling pays it on every step of the ramp, while the
	// forecaster orders capacity before it is needed — which is the
	// entire value proposition of prediction.
	spec, err := flow.NewBuilder("clickstream").
		WithWorkload(flow.WorkloadSpec{
			Pattern: "ramp",
			Base:    1000,
			Peak:    8000,
			At:      flow.Duration(40 * time.Minute),
			Length:  flow.Duration(10 * time.Minute),
			Seed:    seed,
		}).
		WithIngestion(2, 1, 50, flow.DefaultAdaptive(60, window, 4)).
		WithAnalytics(2, 1, 50, flow.DefaultAdaptive(60, window, 4)).
		WithStorage(200, 50, 20000, flow.DefaultAdaptive(60, window, 400)).
		WithProvisionDelay(flow.Analytics, 5*time.Minute).
		Build()
	if err != nil {
		return PredictiveResult{}, err
	}
	run := func(predictive bool) (sim.Result, int, error) {
		// The harness sizes the forecast horizon to cover the boot delay
		// plus one window (8 min here), or predicted capacity would still
		// arrive late.
		h, err := sim.New(spec, sim.Options{Step: 10 * time.Second, Seed: seed, Predictive: predictive})
		if err != nil {
			return sim.Result{}, 0, err
		}
		res, err := h.Run(3 * time.Hour)
		return res, h.PreScaleActions(), err
	}

	reactive, _, err := run(false)
	if err != nil {
		return PredictiveResult{}, err
	}
	predictive, actions, err := run(true)
	if err != nil {
		return PredictiveResult{}, err
	}
	return PredictiveResult{
		ReactiveViolationRate:   reactive.ViolationRate,
		PredictiveViolationRate: predictive.ViolationRate,
		ReactiveCost:            reactive.TotalCost,
		PredictiveCost:          predictive.TotalCost,
		PreScaleActions:         actions,
	}, nil
}
