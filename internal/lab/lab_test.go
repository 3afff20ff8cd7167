package lab

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flow"
)

// quickSpec is a small, fast experiment: constant low-rate workload,
// short duration, n controller variants.
func quickSpec(name string, variants int, dur time.Duration) Spec {
	s := Spec{
		Name:     name,
		Peak:     600,
		Duration: flow.Duration(dur),
		Step:     flow.Duration(10 * time.Second),
		Workloads: []WorkloadVariant{{
			Name:     "constant",
			Workload: flow.WorkloadSpec{Pattern: "constant", Base: 300, Poisson: true, Seed: 7},
		}},
	}
	for i := 0; i < variants; i++ {
		window := time.Duration(i+1) * time.Minute
		s.Controllers = append(s.Controllers, ControllerVariant{
			Name: fmt.Sprintf("w%d", i+1),
			Layers: map[flow.LayerKind]flow.ControllerSpec{
				flow.Analytics: flow.DefaultAdaptive(60, window, 4),
			},
		})
	}
	return s
}

// seedRange returns n distinct seeds (duplicates are themselves a
// validation error).
func seedRange(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"no duration", func(s *Spec) { s.Duration = 0 }},
		{"unnamed variant", func(s *Spec) { s.Controllers[0].Name = "" }},
		{"duplicate variant", func(s *Spec) { s.Controllers[1].Name = s.Controllers[0].Name }},
		{"oversized grid", func(s *Spec) { s.Seeds = seedRange(MaxTrials + 1) }},
		{"unknown baseline", func(s *Spec) { s.Baseline = "constant/w1/s0" }}, // seed suffix only with >1 seeds
		{"slash in variant name", func(s *Spec) { s.Controllers[0].Name = "a/b" }},
		{"duplicate seeds", func(s *Spec) { s.Seeds = []int64{7, 7} }},
		{"typo'd controller layer", func(s *Spec) {
			s.Controllers[0].Layers["analytcs"] = s.Controllers[0].Layers[flow.Analytics]
		}},
		{"typo'd allocation layer", func(s *Spec) {
			s.Allocations = []AllocationVariant{{Name: "a", Initial: map[flow.LayerKind]float64{"storge": 5}}}
		}},
		{"sub-step duration", func(s *Spec) { s.Duration = flow.Duration(5 * time.Second) }}, // 10s step: zero ticks
	}
	for _, tc := range cases {
		s := quickSpec("x", 2, time.Minute)
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
	s := quickSpec("x", 2, time.Minute)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	s.Baseline = "constant/w2"
	if err := s.Validate(); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
}

func TestDeltasWaitForNamedBaseline(t *testing.T) {
	mk := func(name string, st TrialStatus, cost float64) TrialSummary {
		return TrialSummary{Trial: Trial{Name: name}, Status: st, TotalCost: cost}
	}
	// The named baseline has not completed yet: no deltas, rather than a
	// silent fallback that would flip reference once it finishes.
	agg := aggregate([]TrialSummary{
		mk("a", TrialDone, 1),
		mk("b", TrialRunning, 0),
	}, "b")
	if agg.Baseline != "" || len(agg.Deltas) != 0 {
		t.Fatalf("deltas reported against a fallback baseline: %+v", agg)
	}
	agg = aggregate([]TrialSummary{
		mk("a", TrialDone, 1),
		mk("b", TrialDone, 2),
	}, "b")
	if agg.Baseline != "b" || len(agg.Deltas) != 1 {
		t.Fatalf("baseline not honoured once completed: %+v", agg)
	}
}

func TestExpandCrossesAxesDeterministically(t *testing.T) {
	s := quickSpec("grid", 3, time.Minute)
	s.Seeds = []int64{0, 1}
	s.Allocations = []AllocationVariant{
		{Name: "small", Initial: map[flow.LayerKind]float64{flow.Analytics: 2}},
		{Name: "large", Initial: map[flow.LayerKind]float64{flow.Analytics: 8}},
	}
	if got, want := s.TrialCount(), 1*3*2*2; got != want {
		t.Fatalf("TrialCount = %d, want %d", got, want)
	}
	trials, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 12 {
		t.Fatalf("expanded %d trials, want 12", len(trials))
	}
	// Names are unique and stable.
	seen := map[string]bool{}
	for _, tr := range trials {
		if seen[tr.Name] {
			t.Fatalf("duplicate trial name %q", tr.Name)
		}
		seen[tr.Name] = true
	}
	if trials[0].Name != "constant/w1/small/s0" {
		t.Fatalf("trial 0 name = %q", trials[0].Name)
	}
	// Allocation variants land in the materialised specs.
	ana, _ := trials[0].Spec.Layer(flow.Analytics)
	if ana.Initial != 2 {
		t.Fatalf("allocation variant not applied: initial VMs = %v", ana.Initial)
	}
	// Same spec expands to identical seeds; different grid coordinates
	// get decorrelated seeds.
	again, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range trials {
		if trials[i].SimSeed != again[i].SimSeed {
			t.Fatalf("expansion is not deterministic at trial %d", i)
		}
	}
	// Controller variants at one (workload, allocation, seed) point run
	// on one noise draw; trials that differ in workload, allocation or
	// seed do not.
	type point struct {
		workload, allocation string
		seed                 int64
	}
	simSeeds := map[point]int64{}
	owner := map[int64]point{}
	for _, tr := range trials {
		p := point{tr.Workload, tr.Allocation, tr.Seed}
		if s, ok := simSeeds[p]; ok {
			if tr.SimSeed != s {
				t.Fatalf("%s runs on sim seed %d, its point's other controllers on %d", tr.Name, tr.SimSeed, s)
			}
			continue
		}
		if q, ok := owner[tr.SimSeed]; ok {
			t.Fatalf("distinct grid points %+v and %+v share sim seed %d", q, p, tr.SimSeed)
		}
		simSeeds[p], owner[tr.SimSeed] = tr.SimSeed, p
	}
	if len(simSeeds) != 4 {
		t.Fatalf("%d distinct (workload, allocation, seed) points, want 4", len(simSeeds))
	}
}

func TestExpandRejectsInvalidVariant(t *testing.T) {
	s := quickSpec("bad", 1, time.Minute)
	// An allocation outside the layer's [min, max] must fail expansion.
	s.Allocations = []AllocationVariant{
		{Name: "oob", Initial: map[flow.LayerKind]float64{flow.Analytics: 1e9}},
	}
	if _, err := s.Expand(); err == nil {
		t.Fatal("Expand accepted an out-of-range allocation variant")
	}
	// A storage-reads controller needs the dashboard read workload.
	s = quickSpec("noreads", 1, time.Minute)
	s.Controllers[0].Layers[flow.StorageReads] = flow.DefaultAdaptive(60, time.Minute, 40)
	if _, err := s.Expand(); err == nil {
		t.Fatal("Expand accepted a storage-reads variant on a flow without a dashboard")
	}
}

func TestMinimalSpecIsOneBaseTrial(t *testing.T) {
	s := Spec{Name: "one", Duration: flow.Duration(time.Minute)}
	trials, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 1 || trials[0].Name != "base" {
		t.Fatalf("minimal spec expanded to %+v", trials)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() Results {
		e := NewEngine(2)
		defer e.Close()
		x, err := e.Submit("det", quickSpec("det", 2, 10*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		<-x.Done()
		return x.Results()
	}
	a, b := run(), run()
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		at, bt := a.Trials[i], b.Trials[i]
		if at.TotalCost != bt.TotalCost || at.ViolationRate != bt.ViolationRate ||
			at.Offered != bt.Offered {
			t.Fatalf("trial %q not reproducible: cost %v vs %v, viol %v vs %v, offered %d vs %d",
				at.Name, at.TotalCost, bt.TotalCost, at.ViolationRate, bt.ViolationRate,
				at.Offered, bt.Offered)
		}
	}
}

func TestAggregatesRankAndExtractPareto(t *testing.T) {
	mk := func(name string, cost, viol float64) TrialSummary {
		return TrialSummary{
			Trial:         Trial{Name: name},
			Status:        TrialDone,
			TotalCost:     cost,
			ViolationRate: viol,
		}
	}
	trials := []TrialSummary{
		mk("cheap-bad", 1.0, 0.30),
		mk("dear-good", 4.0, 0.01),
		mk("balanced", 2.0, 0.05),
		mk("dominated", 3.0, 0.40), // worse than balanced on both axes
		{Trial: Trial{Name: "failed"}, Status: TrialFailed},
	}
	agg := aggregate(trials, "balanced")
	if agg.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", agg.Completed)
	}
	if agg.BestCost.Name != "cheap-bad" || agg.WorstCost.Name != "dear-good" {
		t.Fatalf("cost ranking wrong: best %q worst %q", agg.BestCost.Name, agg.WorstCost.Name)
	}
	if agg.BestViolation.Name != "dear-good" || agg.WorstViolation.Name != "dominated" {
		t.Fatalf("violation ranking wrong: best %q worst %q", agg.BestViolation.Name, agg.WorstViolation.Name)
	}
	front := map[string]bool{}
	for _, p := range agg.Pareto {
		front[p.Name] = true
	}
	if !front["cheap-bad"] || !front["dear-good"] || !front["balanced"] || front["dominated"] {
		t.Fatalf("Pareto front wrong: %v", agg.Pareto)
	}
	if agg.Baseline != "balanced" {
		t.Fatalf("Baseline = %q, want balanced", agg.Baseline)
	}
	var vsBase map[string]Delta
	vsBase = map[string]Delta{}
	for _, d := range agg.Deltas {
		vsBase[d.Name] = d
	}
	if d := vsBase["cheap-bad"]; d.CostPct != -50 {
		t.Fatalf("cheap-bad cost delta = %v%%, want -50%%", d.CostPct)
	}
	if d := vsBase["dear-good"]; d.CostPct != 100 {
		t.Fatalf("dear-good cost delta = %v%%, want 100%%", d.CostPct)
	}
}
