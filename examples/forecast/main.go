// Forecast: pair Flower's reactive controllers with workload prediction —
// pre-provisioning each layer for the trend-forecast load so that a steep
// traffic ramp is absorbed instead of merely reacted to. This exercises
// the harness's predictive mode, a Holt trend forecast over the arrival
// rate (experiment E8).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/sim"

	flower "repro"
)

func main() {
	log.SetFlags(0)

	// Run the same ramp twice: reactive-only vs reactive+predictive.
	window := 2 * time.Minute
	build := func() flower.Spec {
		spec, err := flower.NewBuilder("clickstream").
			WithWorkload(flower.WorkloadSpec{
				Pattern: "ramp", Base: 1000, Peak: 6000,
				At: flower.Duration(30 * time.Minute), Length: flower.Duration(time.Hour),
			}).
			WithIngestion(2, 1, 50, flower.DefaultAdaptive(60, window, 4)).
			WithAnalytics(2, 1, 50, flower.DefaultAdaptive(60, window, 4)).
			WithStorage(200, 50, 20000, flower.DefaultAdaptive(60, window, 400)).
			Build()
		if err != nil {
			log.Fatal(err)
		}
		return spec
	}

	run := func(predictive bool) {
		label := "reactive only        "
		if predictive {
			label = "reactive + predictive"
		}
		h, err := sim.New(build(), sim.Options{Step: 10 * time.Second, Seed: 1, Predictive: predictive})
		if err != nil {
			log.Fatal(err)
		}
		res, err := h.Run(3 * time.Hour)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s  violations %.2f%%  cost $%.3f  pre-scale actions %d\n",
			label, 100*res.ViolationRate, res.TotalCost, h.PreScaleActions())
	}
	fmt.Println("6× ramp over one hour, three simulated hours total:")
	run(false)
	run(true)
}
