package httpapi

import (
	"net/http"
	"testing"
	"time"

	apiv1 "repro/api/v1"
)

// TestSchedulerStatsEndpoint exercises GET /v1/scheduler: the endpoint
// reports the execution plane's shape and, after a flow paces, non-zero
// flow-class execution counters with consistent per-shard rows.
func TestSchedulerStatsEndpoint(t *testing.T) {
	s, reg := newTestServer(t)

	var st apiv1.SchedulerStats
	rec := do(t, s, http.MethodGet, "/v1/scheduler", "", &st)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if st.Shards <= 0 || st.WorkersPerShard <= 0 || st.Capacity != st.Shards*st.WorkersPerShard {
		t.Fatalf("implausible sizing: %+v", st)
	}
	if len(st.PerShard) != st.Shards {
		t.Fatalf("per-shard rows = %d, want %d", len(st.PerShard), st.Shards)
	}
	if st.Goroutines <= 0 {
		t.Fatal("no goroutine count reported")
	}
	if _, err := time.ParseDuration(st.WheelTick); err != nil {
		t.Fatalf("wheel tick %q not a duration: %v", st.WheelTick, err)
	}

	// Pace the registered flow and observe flow-class executions land in
	// the counters.
	f, _ := reg.Get("clicks")
	if err := f.StartPacing(1200, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		do(t, s, http.MethodGet, "/v1/scheduler", "", &st)
		if st.ExecutedFlow > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pacer ticks never appeared in /v1/scheduler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.StopPacing()

	var perShard uint64
	var histo uint64
	var batches, batchJobs uint64
	for _, row := range st.PerShard {
		perShard += row.ExecutedFlow + row.ExecutedBatch
		histo += row.Latency.Count
		batches += row.Batches
		batchJobs += row.BatchJobs
		if len(row.Latency.BoundsUS)+1 != len(row.Latency.Counts) {
			t.Fatalf("shard %d: %d bounds vs %d counts (want bounds+overflow)",
				row.Shard, len(row.Latency.BoundsUS), len(row.Latency.Counts))
		}
	}
	if perShard != st.ExecutedFlow+st.ExecutedBatch {
		t.Fatalf("per-shard executions %d != totals %d", perShard, st.ExecutedFlow+st.ExecutedBatch)
	}
	if histo != perShard {
		t.Fatalf("histogram samples %d != executions %d", histo, perShard)
	}

	// Batched-execution accounting: the executions above rode in batches,
	// and the per-shard batch counters sum to the totals.
	if st.Batches == 0 || st.BatchJobs < st.Batches {
		t.Fatalf("implausible batch accounting: %d batches, %d jobs", st.Batches, st.BatchJobs)
	}
	if batches != st.Batches || batchJobs != st.BatchJobs {
		t.Fatalf("per-shard batches %d/%d != totals %d/%d", batches, batchJobs, st.Batches, st.BatchJobs)
	}
	if want := st.MeanBatch; st.Batches > 0 {
		if got := float64(st.BatchJobs) / float64(st.Batches); got != want {
			t.Fatalf("mean_batch = %v, want %v", want, got)
		}
	}
	if st.MaxBatch <= 0 {
		t.Fatal("max batch not reported despite executions")
	}
}
