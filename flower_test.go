package flower_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"

	flower "repro"
)

// These tests exercise the public facade exactly the way README's
// quickstart does.

func TestQuickstartPath(t *testing.T) {
	spec, err := flower.DefaultClickstream(2000)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := flower.New(spec, flower.Options{Step: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mgr.Run(30 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.TotalCost <= 0 {
		t.Fatalf("run produced no work or no cost: %+v", res)
	}
	var buf bytes.Buffer
	if err := mgr.RenderDashboard(&buf, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "all-in-one-place") {
		t.Fatal("dashboard missing")
	}
}

func TestBuilderPath(t *testing.T) {
	spec, err := flower.NewBuilder("custom").
		WithWorkload(flower.WorkloadSpec{Pattern: "constant", Base: 500}).
		WithIngestion(1, 1, 10, flower.DefaultAdaptive(60, time.Minute, 2)).
		WithAnalytics(1, 1, 10, flower.DefaultAdaptive(60, time.Minute, 2)).
		WithStorage(100, 50, 5000, flower.DefaultAdaptive(60, time.Minute, 100)).
		WithBudget(0.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "custom" {
		t.Fatal("builder lost the name")
	}
	// JSON round trip through the public API.
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := flower.DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != spec.Name {
		t.Fatal("decode lost the name")
	}
}

func TestAnalysisPath(t *testing.T) {
	spec, err := flower.DefaultClickstream(2000)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := flower.New(spec, sim.Options{Step: 10 * time.Second, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	refs := mgr.StandardRefs()
	dep, err := mgr.AnalyzeDependency(refs[0], refs[1])
	if err != nil {
		t.Fatal(err)
	}
	if dep.Model.N == 0 {
		t.Fatal("dependency fitted on no samples")
	}
	plans, err := mgr.AnalyzeShares(nil, flower.NSGA2Config{PopSize: 40, Generations: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no provisioning plans")
	}
}
