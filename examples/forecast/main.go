// Forecast: pair Flower's reactive controllers with workload prediction —
// pre-provisioning each layer for the trend-forecast load so that a steep
// traffic ramp is absorbed instead of merely reacted to. This exercises
// the internal/forecast predictors (Holt trend, Holt-Winters seasonality)
// and the harness's predictive mode (experiment E8).
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"repro/internal/forecast"
	"repro/internal/sim"

	flower "repro"
)

func main() {
	log.SetFlags(0)

	// 1. Model selection: which predictor tracks a diurnal click-stream
	//    best one step ahead? (Holt-Winters should win on seasonal data.)
	series := make([]float64, 24*7)
	for i := range series {
		series[i] = 1500 + 1200*math.Sin(2*math.Pi*float64(i%24)/24)
	}
	models := []struct {
		name string
		mk   func() forecast.Predictor
	}{
		{"SES(0.5)", func() forecast.Predictor { p, _ := forecast.NewSES(0.5); return p }},
		{"Holt(0.6,0.3)", func() forecast.Predictor { p, _ := forecast.NewHolt(0.6, 0.3); return p }},
		{"HoltWinters(24)", func() forecast.Predictor { p, _ := forecast.NewHoltWinters(0.4, 0.1, 0.4, 24); return p }},
		{"AR1", func() forecast.Predictor { p, _ := forecast.NewAR1(128); return p }},
	}
	fmt.Println("one-step-ahead MAPE on a synthetic diurnal day (hourly buckets):")
	for _, m := range models {
		fmt.Printf("  %-18s %.1f%%\n", m.name, forecast.Evaluate(m.mk, series))
	}

	// 2. Run the same ramp twice: reactive-only vs reactive+predictive.
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
	fmt.Println("\n6× ramp over one hour, three simulated hours total:")
	run(false)
	run(true)
}
