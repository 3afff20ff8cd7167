package lab

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metricstore"
	"repro/internal/simtime"
	"repro/internal/timeseries"
)

// TestConcurrentMetricPipelineUnderLabLoad drives the handle-based hot
// paths — Handle.Append, Handle.Stat, Handle.Window, Handle.Latest,
// Store.Each — concurrently against one shared store while a lab
// experiment saturates the worker pool with real trials (each trial's
// harness hammering its own store the same way). Run under -race (CI's
// test job always is), this is the concurrency-correctness check for the
// per-entry locking design.
func TestConcurrentMetricPipelineUnderLabLoad(t *testing.T) {
	engine := NewEngine(2)
	defer engine.Close()
	x, err := engine.Submit("race", quickSpec("race", 2, 10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}

	store := metricstore.NewStore()
	store.SetRetention(5 * time.Minute)
	dims := map[string]string{"StreamName": "shared"}
	names := []string{"IncomingRecords", "WriteUtilization", "ThrottleEvents", "BacklogRecords"}

	const pointsPerWriter = 2000

	// Writers: one handle per goroutine, each on its own metric (per-metric
	// appends must stay ordered), appending a monotonic 4 Hz clock.
	var writers sync.WaitGroup
	for _, name := range names {
		writers.Add(1)
		go func(name string) {
			defer writers.Done()
			h := store.MustHandle("Ingestion/Stream", name, dims)
			now := simtime.Epoch
			for i := 0; i < pointsPerWriter; i++ {
				now = now.Add(250 * time.Millisecond)
				h.MustAppend(now, float64(i))
			}
		}(name)
	}

	// Readers: per-call resolution with windowed queries, handle stats,
	// latest reads and full-store walks race the writers until they finish.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					if h, ok := store.Lookup("Ingestion/Stream", "IncomingRecords", dims); ok {
						h.Window(metricstore.WindowQuery{Period: time.Minute, Stat: timeseries.AggP90})
					}
					storeLatest(store, "Ingestion/Stream", "WriteUtilization", dims)
				case 1:
					if h, ok := store.Lookup("Ingestion/Stream", "ThrottleEvents", dims); ok {
						h.Stat(time.Time{}, time.Time{}, timeseries.AggMean)
						h.Latest()
					}
				default:
					store.Each(func(id metricstore.MetricID, v timeseries.View) {
						v.Aggregate(timeseries.AggMax, nil)
					})
					store.ListMetrics("")
				}
			}
		}(r)
	}

	writers.Wait()
	close(stop)
	readers.Wait()

	<-x.Done()
	if st := x.Status(); st != StatusCompleted {
		t.Fatalf("experiment status %v, want completed", st)
	}

	// Retention stayed consistent: every shared metric retained exactly the
	// 5-minute window of its 4 Hz appends.
	for _, name := range names {
		h, ok := store.Lookup("Ingestion/Stream", name, dims)
		if !ok {
			t.Fatalf("metric %s missing", name)
		}
		if got, want := h.Window(metricstore.WindowQuery{}).Len(), 4*300+1; got != want {
			t.Fatalf("%s retained %d points, want %d", name, got, want)
		}
	}
}
