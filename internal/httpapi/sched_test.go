package httpapi

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"testing"
	"time"

	apiv1 "repro/api/v1"
)

// The keys of the GET /v1/scheduler document, of each per_shard row and
// of each row's latency histogram.
var (
	schedulerKeys = []string{
		"batch_jobs", "batches", "capacity", "executed_batch", "executed_flow",
		"flow_weight", "goroutines", "late_runs", "max_batch", "max_catch_up",
		"mean_batch", "per_shard", "queue_depth", "shards", "skipped_ticks",
		"steals", "timers", "wheel_tick", "workers_per_shard",
	}
	schedulerShardKeys = []string{
		"batch_jobs", "batch_queue", "batches", "executed_batch", "executed_flow",
		"flow_queue", "late_runs", "latency", "max_batch", "queue_depth",
		"shard", "skipped_ticks", "timers",
	}
	latencyKeys = []string{"bounds_us", "count", "counts", "max_us", "mean_us"}
)

// checkKeys fails unless obj holds exactly the keys want.
func checkKeys(t *testing.T, what string, obj map[string]any, want []string) {
	t.Helper()
	if got := slices.Sorted(maps.Keys(obj)); !slices.Equal(got, want) {
		t.Fatalf("%s keys = %v, want %v", what, got, want)
	}
}

// TestSchedulerStatsEndpoint exercises GET /v1/scheduler: the document
// keeps its keys, states the plane's fixed shape (one worker per shard,
// the scheduler's constant policy), and, after a flow paces, reports
// non-zero flow-class execution counters with consistent per-shard rows.
func TestSchedulerStatsEndpoint(t *testing.T) {
	s, reg := newTestServer(t)

	var st apiv1.SchedulerStats
	rec := do(t, s, http.MethodGet, "/v1/scheduler", "", &st)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if st.Shards <= 0 || st.WorkersPerShard != 1 || st.Capacity != st.Shards {
		t.Fatalf("sizing: %d shards x %d workers, capacity %d; want 1 worker per shard and capacity = shards",
			st.Shards, st.WorkersPerShard, st.Capacity)
	}
	if st.FlowWeight != 4 || st.MaxCatchUp != 4 || st.WheelTick != "2ms" {
		t.Fatalf("policy: flow_weight %d, max_catch_up %d, wheel_tick %q; want 4, 4, \"2ms\"",
			st.FlowWeight, st.MaxCatchUp, st.WheelTick)
	}
	if len(st.PerShard) != st.Shards {
		t.Fatalf("per-shard rows = %d, want %d", len(st.PerShard), st.Shards)
	}
	if st.Goroutines <= 0 {
		t.Fatal("no goroutine count reported")
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

	// The document's keys, on the same response the counters below read.
	raw := get(t, s, "/v1/scheduler", nil).Body.Bytes()
	var doc map[string]any
	st = apiv1.SchedulerStats{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "scheduler", doc, schedulerKeys)
	for _, row := range doc["per_shard"].([]any) {
		row := row.(map[string]any)
		checkKeys(t, "per_shard row", row, schedulerShardKeys)
		checkKeys(t, "per_shard latency", row["latency"].(map[string]any), latencyKeys)
	}

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
