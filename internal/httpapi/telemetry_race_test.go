package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestTelemetryScrapeUnderLoad scrapes /v1/telemetry and /v1/telemetry/trace
// concurrently while 200 flows pace on the shared scheduler and a lab grid
// settles — the configuration the race detector cares about: every
// instrument is hit from pacer goroutines, lab trial workers, and scrape
// readers at once. Run with -race; without it the test still asserts that
// scrapes stay 200 and the pacing counters move.
func TestTelemetryScrapeUnderLoad(t *testing.T) {
	reg := registry.New()
	t.Cleanup(reg.Close)

	spec, err := flow.DefaultClickstream(2000)
	if err != nil {
		t.Fatal(err)
	}
	const flows = 200
	for i := 0; i < flows; i++ {
		id := fmt.Sprintf("load-%03d", i)
		spec.Name = id
		f, err := reg.Create(id, spec, sim.Options{Step: 10 * time.Second, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.StartPacing(600, 20*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	s := NewServer(reg)
	t.Cleanup(s.Lab().Close)

	// A small experiment grid runs alongside the pacers.
	rec := do(t, s, http.MethodPost, "/v1/experiments",
		`{"id": "scrape-load", "spec": `+labSpecJSON("scrape-load", 5)+`}`, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create experiment: %d (%s)", rec.Code, rec.Body.String())
	}

	paths := []string{
		"/v1/telemetry",
		"/v1/telemetry?format=prom",
		"/v1/telemetry/trace",
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := paths[w%len(paths)]
			for i := 0; i < 40; i++ {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					t.Errorf("scrape %s: status %d", path, rr.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitExperiment(t, s, "scrape-load")

	snap := telemetry.Default().Snapshot()
	pacing := snap.Find("flower_registry_flows_pacing")
	if pacing == nil || pacing.Metrics[0].Value != flows {
		t.Fatalf("flows_pacing = %+v, want %d", pacing, flows)
	}
	if counterValue(t, "flower_sched_executed_total") == 0 {
		t.Fatal("scheduler executed nothing under load")
	}
	if counterValue(t, "flower_lab_trials_total") == 0 {
		t.Fatal("lab trials not visible in telemetry")
	}
}
