package lab

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestPacersAndExperimentShareExecutionPlane is the unified-plane
// acceptance test, run with -race in CI: 200 flows pace on the same
// scheduler an experiment grid runs on. The experiment must complete
// (batch work is not starved by the pacer flood), the flows must keep
// advancing (the weighted-fairness drain keeps the grid from starving
// them), and both kinds of work must show up in the scheduler's stats.
func TestPacersAndExperimentShareExecutionPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("200-flow co-scheduling test")
	}
	s := sched.New(sched.Config{Shards: 8})
	defer s.Close()
	r := registry.New(registry.WithScheduler(s))
	defer r.Close()
	e := NewEngineOn(s)
	defer e.Close()

	spec, err := flow.NewBuilder("co").
		WithWorkload(flow.WorkloadSpec{Pattern: "constant", Base: 1000}).
		WithIngestion(2, 1, 50, flow.DefaultAdaptive(60, 2*time.Minute, 4)).
		WithAnalytics(2, 1, 50, flow.DefaultAdaptive(60, 2*time.Minute, 4)).
		WithStorage(200, 50, 20000, flow.DefaultAdaptive(60, 2*time.Minute, 400)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	const flows = 200
	for i := 0; i < flows; i++ {
		id := fmt.Sprintf("paced-%03d", i)
		sp := spec
		sp.Name = id
		f, err := r.Create(id, sp, sim.Options{Step: 10 * time.Second, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.StartPacing(600, 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	x, err := e.Submit("grid", quickSpec("grid", 6, 5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := x.Wait(ctx); err != nil {
		t.Fatalf("experiment did not complete while flows paced: %v", err)
	}
	p := x.Progress()
	if p.Done != 6 || p.Failed != 0 {
		t.Fatalf("experiment progress under co-scheduling: %+v", p)
	}

	// The flows must be advancing too (a fast experiment may settle before
	// the first wall tick, so poll briefly rather than sampling once).
	deadline := time.Now().Add(time.Minute)
	for {
		total := 0
		for _, f := range r.List() {
			f.View(func(m *core.Manager) { total += m.Harness().Result().Ticks })
			if total > 0 {
				break
			}
		}
		if total > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no flow advanced around the experiment run: pacers starved")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := s.Stats()
	if st.ExecutedFlow == 0 || st.ExecutedBatch == 0 {
		t.Fatalf("scheduler stats missing a class: flow=%d batch=%d", st.ExecutedFlow, st.ExecutedBatch)
	}
}
