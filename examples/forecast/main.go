// Forecast: pair Flower's reactive controllers with workload prediction —
// pre-provisioning each layer for the trend-forecast load so that a steep
// traffic ramp is absorbed instead of merely reacted to. It runs
// experiment E8: a Holt trend forecast over the arrival rate, on a
// 1000 → 8000 records/s ramp over ten minutes with a five-minute analytics
// instance boot, where reactive scaling pays the boot on every step.
package main

import (
	"fmt"
	"log"

	"repro/internal/exper"
)

func main() {
	log.SetFlags(0)
	r, err := exper.Predictive(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("8× ramp over ten minutes, 5-minute analytics boot, three simulated hours:")
	fmt.Printf("  reactive only          violations %.2f%%  cost $%.3f\n",
		100*r.ReactiveViolationRate, r.ReactiveCost)
	fmt.Printf("  reactive + predictive  violations %.2f%%  cost $%.3f  pre-scale actions %d\n",
		100*r.PredictiveViolationRate, r.PredictiveCost, r.PreScaleActions)
}
