package exper

import (
	"context"
	"testing"
	"time"

	"repro/internal/lab"
)

// runGrid runs spec on a private lab engine and returns its trials in grid
// order, failing the test unless every trial completed.
func runGrid(t *testing.T, spec lab.Spec) []lab.TrialSummary {
	t.Helper()
	e := lab.NewEngine(0)
	defer e.Close()
	x, err := e.Submit(spec.Name, spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := x.Wait(ctx); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	trials := x.Results().Trials
	for _, tr := range trials {
		if tr.Status != lab.TrialDone {
			t.Fatalf("%s: trial %s %s: %s", spec.Name, tr.Name, tr.Status, tr.Error)
		}
	}
	return trials
}

// actions counts a trial's applied resizes across all layers.
func actions(tr lab.TrialSummary) int {
	n := 0
	for _, a := range tr.Actions {
		n += a
	}
	return n
}

// TestWindowSweepShape runs the monitoring-window sweep as a lab grid:
// longer windows must mean less resize churn.
func TestWindowSweepShape(t *testing.T) {
	windows := runGrid(t, WindowSweepSpec(42))
	if len(windows) != 5 {
		t.Fatalf("window rows = %d, want 5", len(windows))
	}
	// Longer windows mean strictly fewer control opportunities; resize
	// churn must fall over the sweep.
	first, last := windows[0], windows[len(windows)-1]
	if actions(first) <= actions(last) {
		t.Errorf("actions did not fall with window: %d (%s) vs %d (%s)", actions(first), first.Name, actions(last), last.Name)
	}
	for _, tr := range windows {
		t.Logf("%-16s actions %4d  viol. rate %.3f  cost $%.2f", tr.Name, actions(tr), tr.ViolationRate, tr.TotalCost)
		if tr.TotalCost <= 0 {
			t.Errorf("%s: no cost metered", tr.Name)
		}
	}
}

// TestGammaSweepShape runs the elasticity-speed sweep as a lab grid: no
// setting of gamma may leave the flow violating its target most of the time.
func TestGammaSweepShape(t *testing.T) {
	gamma := runGrid(t, GammaSweepSpec(42))
	if len(gamma) != 5 {
		t.Fatalf("gamma rows = %d, want 5", len(gamma))
	}
	for _, tr := range gamma {
		t.Logf("%-16s actions %4d  viol. rate %.3f  cost $%.2f", tr.Name, actions(tr), tr.ViolationRate, tr.TotalCost)
		if tr.ViolationRate > 0.25 {
			t.Errorf("%s: violation rate %.3f implausibly high", tr.Name, tr.ViolationRate)
		}
	}
}
