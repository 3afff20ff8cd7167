package exper

import "testing"

// TestWindowSweepShape runs the monitoring-window sweep as a lab grid:
// longer windows must mean less resize churn, on every seed.
func TestWindowSweepShape(t *testing.T) {
	for i, a := range measureSeeds(t) {
		seed, windows := scorecardSeeds[i], a.windows
		if len(windows) != 5 {
			t.Errorf("seed %d: window rows = %d, want 5", seed, len(windows))
			continue
		}
		// Longer windows mean strictly fewer control opportunities;
		// resize churn must fall over the sweep.
		first, last := windows[0], windows[len(windows)-1]
		if actions(first) <= actions(last) {
			t.Errorf("seed %d: actions did not fall with window: %d (%s) vs %d (%s)",
				seed, actions(first), first.Name, actions(last), last.Name)
		}
		for _, tr := range windows {
			t.Logf("seed %d: %-16s actions %4d  viol. rate %.3f  cost $%.2f", seed, tr.Name, actions(tr), tr.ViolationRate, tr.TotalCost)
			if tr.TotalCost <= 0 {
				t.Errorf("seed %d: %s: no cost metered", seed, tr.Name)
			}
		}
	}
}

// TestGammaSweepShape runs the elasticity-speed sweep as a lab grid: no
// setting of gamma may leave the flow violating its target most of the
// time, on any seed.
func TestGammaSweepShape(t *testing.T) {
	for i, a := range measureSeeds(t) {
		seed, gamma := scorecardSeeds[i], a.gamma
		if len(gamma) != 5 {
			t.Errorf("seed %d: gamma rows = %d, want 5", seed, len(gamma))
			continue
		}
		for _, tr := range gamma {
			t.Logf("seed %d: %-16s actions %4d  viol. rate %.3f  cost $%.2f", seed, tr.Name, actions(tr), tr.ViolationRate, tr.TotalCost)
			if tr.ViolationRate > 0.25 {
				t.Errorf("seed %d: %s: violation rate %.3f implausibly high", seed, tr.Name, tr.ViolationRate)
			}
		}
	}
}
