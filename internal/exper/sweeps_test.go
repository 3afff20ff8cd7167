package exper

import "testing"

// TestWindowSweepShape runs the monitoring-window sweep as a lab grid:
// longer windows must mean less resize churn.
func TestWindowSweepShape(t *testing.T) {
	res, err := Run(WindowSweepSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	windows := res.Trials
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
	res, err := Run(GammaSweepSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	gamma := res.Trials
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
