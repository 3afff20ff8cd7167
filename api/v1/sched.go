package apiv1

// SchedulerStats is the GET /v1/scheduler response: a point-in-time view
// of the execution plane — the sharded tick scheduler that runs every
// flow pacer and experiment trial. Capacity (shards × workers_per_shard)
// is the number of jobs that can execute at one instant; goroutines is
// the whole process's goroutine count, which stays O(shards) no matter
// how many flows are paced.
type SchedulerStats struct {
	Shards          int    `json:"shards"`
	WorkersPerShard int    `json:"workers_per_shard"`
	Capacity        int    `json:"capacity"`
	FlowWeight      int    `json:"flow_weight"`
	MaxCatchUp      int    `json:"max_catch_up"`
	WheelTick       string `json:"wheel_tick"`
	Goroutines      int    `json:"goroutines"`

	// Totals over all shards.
	Timers        int    `json:"timers"`
	QueueDepth    int    `json:"queue_depth"`
	ExecutedFlow  uint64 `json:"executed_flow"`
	ExecutedBatch uint64 `json:"executed_batch"`
	LateRuns      uint64 `json:"late_runs"`
	SkippedTicks  uint64 `json:"skipped_ticks"`
	// Deprecated: always 0. Work stealing was removed — execution is
	// shard-affine; the field stays on the wire only until the
	// cmd/e2ebench `sched.steals` per-layer metric that reads it is
	// retired, and goes with it.
	Steals uint64 `json:"steals"`
	// Batches / BatchJobs count executed run batches and the jobs they
	// carried; MeanBatch = batch_jobs / batches is how much shard-lock
	// amortisation batched execution is winning, and MaxBatch is the
	// largest batch any worker ran (capped by the scheduler's MaxBatch).
	Batches   uint64  `json:"batches"`
	BatchJobs uint64  `json:"batch_jobs"`
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int     `json:"max_batch"`

	PerShard []SchedulerShard `json:"per_shard"`
}

// SchedulerShard is one shard's row of the scheduler stats.
type SchedulerShard struct {
	Shard int `json:"shard"`
	// Timers is the number of armed periodic jobs (paced flows whose next
	// tick waits in this shard's wheel).
	Timers int `json:"timers"`
	// FlowQueue / BatchQueue are the run-queue depths per class.
	FlowQueue  int `json:"flow_queue"`
	BatchQueue int `json:"batch_queue"`
	QueueDepth int `json:"queue_depth"`
	// ExecutedFlow / ExecutedBatch count completed executions per class.
	ExecutedFlow  uint64 `json:"executed_flow"`
	ExecutedBatch uint64 `json:"executed_batch"`
	// LateRuns counts periodic executions that started at least one full
	// interval behind schedule; SkippedTicks counts intervals dropped by
	// the bounded catch-up policy.
	LateRuns     uint64 `json:"late_runs"`
	SkippedTicks uint64 `json:"skipped_ticks"`
	// Batches / BatchJobs / MaxBatch describe the run batches this shard's
	// workers executed. Work never migrates between shards, so these are
	// exactly the jobs that were queued here.
	Batches   uint64 `json:"batches"`
	BatchJobs uint64 `json:"batch_jobs"`
	MaxBatch  int    `json:"max_batch"`
	// Latency is the shard's run-latency histogram.
	Latency LatencyHistogram `json:"latency"`
}

// LatencyHistogram is a run-latency distribution: counts[i] executions
// took at most bounds_us[i] microseconds; the final count is the overflow
// bucket (slower than the last bound).
type LatencyHistogram struct {
	BoundsUS []int64  `json:"bounds_us"`
	Counts   []uint64 `json:"counts"`
	Count    uint64   `json:"count"`
	MeanUS   float64  `json:"mean_us"`
	MaxUS    float64  `json:"max_us"`
}
