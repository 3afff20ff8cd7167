package exper

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/compute"
	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

// GainMemoryResult is the ablation of the paper's headline controller
// feature: "memory of recent controller decisions which leads to rapid
// elasticity" (§3.3). Both runs use the identical Eq. 6–7 controller; the
// ablated one resets the gain l(k) to l(0) before every step, removing the
// accumulation Eq. 7 performs under persistent error.
//
// The scenario is a long sustained ramp with the plant-model guard off:
// per-window errors stay moderate, so the response is shaped by how fast
// the gain grows — exactly the mechanism the paper credits. (On a single
// large step both variants immediately command past the actuator guard and
// look identical.)
type GainMemoryResult struct {
	WithMemory GainMemoryRow
	Memoryless GainMemoryRow
}

// GainMemoryRow is one variant's performance on the ramp.
type GainMemoryRow struct {
	Name string
	// CatchUpMinutes is the time from ramp start until the analytics CPU
	// first returns within ±10 points of the reference (Inf if never).
	CatchUpMinutes float64
	// MeanAbsError is the mean |CPU − ref| over the ramp and hold phases.
	MeanAbsError float64
	// ViolationRate is the fraction of ticks with any layer in violation.
	ViolationRate float64
	// Actions counts applied resizes across all layers.
	Actions int
}

// Table renders the ablation.
func (r GainMemoryResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Gain-memory ablation — Eq. 7 with vs without gain carry-over on a sustained ramp\n")
	fmt.Fprintf(&b, "  %-22s %-16s %-12s %-12s %-8s\n",
		"controller", "catch-up (min)", "|err| mean", "viol. rate", "actions")
	for _, row := range []GainMemoryRow{r.WithMemory, r.Memoryless} {
		catch := fmt.Sprintf("%.0f", row.CatchUpMinutes)
		if math.IsInf(row.CatchUpMinutes, 1) {
			catch = "never"
		}
		fmt.Fprintf(&b, "  %-22s %-16s %-12.2f %-12.3f %-8d\n",
			row.Name, catch, row.MeanAbsError, row.ViolationRate, row.Actions)
	}
	return b.String()
}

// GainMemory runs the ablation.
func GainMemory(seed int64) (GainMemoryResult, error) {
	const (
		ref       = 60.0
		rampStart = 20 * time.Minute
		rampLen   = 90 * time.Minute
		total     = 3 * time.Hour
	)
	window := 2 * time.Minute

	run := func(kind flow.ControllerType) (GainMemoryRow, error) {
		spec, err := flow.NewBuilder("clickstream").
			WithWorkload(flow.WorkloadSpec{
				Pattern: "ramp",
				Base:    1000,
				Peak:    8000,
				At:      flow.Duration(rampStart),
				Length:  flow.Duration(rampLen),
				Seed:    seed,
			}).
			WithIngestion(2, 1, 100, controllerSpecFor(kind, ref, window, 4)).
			WithAnalytics(2, 1, 100, controllerSpecFor(kind, ref, window, 4)).
			WithStorage(200, 50, 40000, controllerSpecFor(kind, ref, window, 400)).
			Build()
		if err != nil {
			return GainMemoryRow{}, err
		}
		h, err := sim.New(spec, sim.Options{
			Step:         10 * time.Second,
			Seed:         seed,
			NoPlantGuard: true,
		})
		if err != nil {
			return GainMemoryRow{}, err
		}
		res, err := h.Run(total)
		if err != nil {
			return GainMemoryRow{}, err
		}

		cpu, ok := h.Store.Lookup(compute.Namespace, compute.MetricCPUUtilization,
			map[string]string{"Topology": spec.Name})
		if !ok {
			return GainMemoryRow{}, fmt.Errorf("exper: gain memory: no analytics CPU series")
		}
		vals := cpu.Window(metricstore.WindowQuery{Period: time.Minute, Stat: timeseries.AggMean}).Values()
		startMin := int(rampStart / time.Minute)

		// Catch-up: first post-ramp-start minute from which CPU stays
		// within ±10 of ref for the rest of the run.
		catch := math.Inf(1)
		for i := startMin; i < len(vals); i++ {
			ok := true
			for _, v := range vals[i:] {
				if math.Abs(v-ref) > 10 {
					ok = false
					break
				}
			}
			if ok {
				catch = float64(i - startMin)
				break
			}
		}
		var absErr float64
		post := vals[startMin:]
		for _, v := range post {
			absErr += math.Abs(v - ref)
		}
		if len(post) > 0 {
			absErr /= float64(len(post))
		}
		actions := 0
		for _, n := range res.Actions {
			actions += n
		}
		return GainMemoryRow{
			Name:           string(kind),
			CatchUpMinutes: catch,
			MeanAbsError:   absErr,
			ViolationRate:  res.ViolationRate,
			Actions:        actions,
		}, nil
	}

	withMem, err := run(flow.ControllerAdaptive)
	if err != nil {
		return GainMemoryResult{}, err
	}
	noMem, err := run(flow.ControllerMemoryless)
	if err != nil {
		return GainMemoryResult{}, err
	}
	return GainMemoryResult{WithMemory: withMem, Memoryless: noMem}, nil
}
