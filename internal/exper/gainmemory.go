package exper

import (
	"time"

	"repro/internal/flow"
	"repro/internal/lab"
)

// GainMemoryResult is the ablation of the paper's headline controller
// feature: "memory of recent controller decisions which leads to rapid
// elasticity" (§3.3). Both runs use the identical Eq. 6–7 controller; the
// ablated one resets the gain l(k) to l(0) before every step, removing the
// accumulation Eq. 7 performs under persistent error.
//
// The scenario is a long sustained ramp: per-window errors stay moderate,
// so the response is shaped by how fast the gain grows — exactly the
// mechanism the paper credits. (On a single large step both variants
// immediately command past the actuator guard and look identical.)
type GainMemoryResult struct {
	WithMemory GainMemoryRow
	Memoryless GainMemoryRow
}

// GainMemoryRow is one variant's performance on the ramp.
type GainMemoryRow struct {
	Name string
	// CatchUpMinutes is the time from ramp start until the analytics CPU
	// stays within ±10 points of the reference for the rest of the run
	// (Inf if it ends outside).
	CatchUpMinutes float64
	// MeanAbsError is the mean |CPU − ref| per minute over the whole run.
	MeanAbsError float64
	// ViolationRate is the fraction of ticks with any layer in violation.
	ViolationRate float64
	// Actions counts applied resizes across all layers.
	Actions int
}

// gainMemorySpec is the ablation's grid: an 8× ramp over 90 minutes,
// starting 20 minutes in, under the adaptive controller and its
// memoryless ablation. Layer maxima leave room for the whole ramp, so
// only the controller limits the catch-up.
func gainMemorySpec(seed int64) (lab.Spec, error) {
	window := 2 * time.Minute
	base, err := flow.NewBuilder("clickstream").
		WithWorkload(flow.WorkloadSpec{
			Pattern: "ramp",
			Base:    1000,
			Peak:    8000,
			At:      flow.Duration(20 * time.Minute),
			Length:  flow.Duration(90 * time.Minute),
			Seed:    seed,
		}).
		WithIngestion(2, 1, 100, flow.DefaultAdaptive(60, window, 4)).
		WithAnalytics(2, 1, 100, flow.DefaultAdaptive(60, window, 4)).
		WithStorage(200, 50, 40000, flow.DefaultAdaptive(60, window, 400)).
		Build()
	if err != nil {
		return lab.Spec{}, err
	}
	return lab.Spec{
		Name:     "gainmemory",
		Base:     &base,
		Duration: flow.Duration(3 * time.Hour),
		Seeds:    []int64{seed},
		Controllers: []lab.ControllerVariant{
			controllerVariant(flow.ControllerAdaptive),
			controllerVariant(flow.ControllerMemoryless),
		},
	}, nil
}

// GainMemory runs experiment E7, the gain-memory ablation grid.
func GainMemory(seed int64) (GainMemoryResult, error) {
	spec, err := gainMemorySpec(seed)
	if err != nil {
		return GainMemoryResult{}, err
	}
	res, err := Run(spec)
	if err != nil {
		return GainMemoryResult{}, err
	}
	// The grid is a two-row controller shoot-out; its settling time is
	// the catch-up.
	rows := controllersResult(res)
	row := func(kind flow.ControllerType) GainMemoryRow {
		r, _ := rows.Row(string(kind))
		return GainMemoryRow{
			Name:           r.Name,
			CatchUpMinutes: r.SettleMinutes,
			MeanAbsError:   r.MeanAbsError,
			ViolationRate:  r.ViolationRate,
			Actions:        r.Actions,
		}
	}
	return GainMemoryResult{
		WithMemory: row(flow.ControllerAdaptive),
		Memoryless: row(flow.ControllerMemoryless),
	}, nil
}
