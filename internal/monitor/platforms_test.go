package monitor_test

import (
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// TestMonitorCoversAllPlatforms reproduces §3.4 qualitatively: after a
// short managed run of the default flow, one consolidated snapshot covers
// every platform of the flow in one place.
func TestMonitorCoversAllPlatforms(t *testing.T) {
	spec, err := flow.DefaultClickstream(2000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sim.New(spec, sim.Options{Step: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	snap := monitor.Collect(h.Store, h.Clock.Now(), 30*time.Minute)
	have := map[string]bool{}
	metrics := 0
	for _, sec := range snap.Sections {
		have[sec.Namespace] = true
		metrics += len(sec.Metrics)
	}
	for _, want := range []string{"Ingestion/Stream", "Analytics/Compute", "Storage/KVStore", "Billing", "Workload/Generator"} {
		if !have[want] {
			t.Errorf("monitoring misses platform %s (have %v)", want, have)
		}
	}
	if len(snap.Sections) != 5 {
		t.Errorf("snapshot has %d platforms, want 5", len(snap.Sections))
	}
	if metrics < 15 {
		t.Errorf("consolidated metrics = %d, want a rich view", metrics)
	}
}
