// Controllers: shoot-out between Flower's adaptive-gain controller
// (Eq. 6–7) and the baselines — fixed-gain [12], quasi-adaptive [14],
// provider-style rules [1], and the gain-memory ablation — on a 4× step
// workload. The companion paper [9] reports the adaptive controller
// outperforming the baselines; this example submits the comparison as
// one Scenario Lab experiment, so the five variants run concurrently on
// the worker pool instead of the serial loop this program used to be.
package main

import (
	"fmt"
	"log"

	"repro/internal/exper"
	"repro/internal/lab"
)

func main() {
	log.SetFlags(0)

	engine := lab.NewEngine(0)
	defer engine.Close()

	spec := exper.ControllerShootoutSpec(1)
	x, err := engine.Submit(spec.Name, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %d controller variants for %v each on %d workers...\n",
		len(spec.Controllers), spec.Duration.D(), engine.Workers())
	<-x.Done()

	// The settle time answers the shoot-out's question: how long after
	// the step the analytics CPU came to stay within ±10 points of its
	// reference. A controller still hunting at the end never settled.
	res := x.Results()
	fmt.Printf("\n%-28s %-12s %-10s %-12s %-14s %-10s\n", "controller", "viol. rate", "actions", "|err| mean", "settle (min)", "cost ($)")
	for _, tr := range res.Trials {
		if tr.Status != lab.TrialDone {
			fmt.Printf("%-28s %s: %s\n", tr.Controller, tr.Status, tr.Error)
			continue
		}
		actions := 0
		for _, n := range tr.Actions {
			actions += n
		}
		settle := "never"
		if tr.SettleMinutes != nil {
			settle = fmt.Sprintf("%.0f", *tr.SettleMinutes)
		}
		fmt.Printf("%-28s %-12.3f %-10d %-12.1f %-14s %-10.3f\n",
			tr.Controller, tr.ViolationRate, actions, tr.MeanAbsError, settle, tr.TotalCost)
	}

	agg := res.Aggregates
	if agg.Completed == 0 {
		log.Fatal("no trial completed")
	}
	fmt.Printf("\nbest tracking: %s (viol. rate %.3f); cheapest: %s ($%.3f)\n",
		agg.BestViolation.Name, agg.BestViolation.Value, agg.BestCost.Name, agg.BestCost.Value)
	fmt.Printf("deltas vs the %q baseline:\n", agg.Baseline)
	for _, d := range agg.Deltas {
		fmt.Printf("  %-28s cost %+.1f%%  viol %+.3f\n", d.Name, d.CostPct, d.ViolationDelta)
	}
}
