package sched

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Process-wide scheduler telemetry. Counters are incremented on the hot
// path (single atomic adds next to the per-shard stats they mirror);
// occupancy gauges are evaluated lazily at snapshot time over the set of
// live schedulers, so they can never drift from the authoritative per-shard
// state and closed schedulers drop out automatically.
var (
	telExecuted = telemetry.Default().CounterVec("flower_sched_executed_total",
		"Job executions completed, by class.", "class")
	telExecutedByClass [numClasses]*telemetry.Counter

	telLateRuns = telemetry.Default().Counter("flower_sched_late_runs_total",
		"Periodic executions that started at least one full interval behind schedule.")
	telSkippedTicks = telemetry.Default().Counter("flower_sched_skipped_ticks_total",
		"Intervals dropped by the bounded catch-up policy.")

	telRunSeconds = telemetry.Default().HistogramVec("flower_sched_run_seconds",
		"Run latency of executed jobs, by class.", latencyBounds[:], "class")
	telRunSecondsByClass [numClasses]*telemetry.Histogram

	telTimerWakeups = telemetry.Default().Counter("flower_sched_timer_wakeups_total",
		"Returns of a shard loop from its clock sleep: wheel advances, early re-arms and wakes by a submitted job.")

	telFireLag = telemetry.Default().HistogramVec("flower_sched_fire_lag_seconds",
		"Periodic run start minus the wheel-slot boundary the fire was armed for, by class.", latencyBounds[:], "class")
	telFireLagByClass [numClasses]*telemetry.Histogram

	telBatches = telemetry.Default().CounterVec("flower_sched_batches_total",
		"Run batches executed, by class.", "class")
	telBatchesByClass [numClasses]*telemetry.Counter

	telBatchJobs = telemetry.Default().HistogramVec("flower_sched_batch_jobs",
		"Jobs carried per executed run batch, by class (bucket bounds are job counts).",
		batchSizeBounds[:], "class")
	telBatchJobsByClass [numClasses]*telemetry.Histogram
)

// batchJobUnit encodes one job as one second in the batch-size histogram,
// so the exposition's `le` bounds render as whole job counts (1, 4, 16, …)
// instead of nanosecond fractions.
const batchJobUnit = time.Second

var batchSizeBounds = [...]time.Duration{
	1 * batchJobUnit,
	4 * batchJobUnit,
	16 * batchJobUnit,
	64 * batchJobUnit,
	256 * batchJobUnit,
	1024 * batchJobUnit,
}

func init() {
	for c := Class(0); c < numClasses; c++ {
		telExecutedByClass[c] = telExecuted.With(c.String())
		telRunSecondsByClass[c] = telRunSeconds.With(c.String())
		telFireLagByClass[c] = telFireLag.With(c.String())
		telBatchesByClass[c] = telBatches.With(c.String())
		telBatchJobsByClass[c] = telBatchJobs.With(c.String())
	}
	telemetry.Default().GaugeFunc("flower_sched_timers",
		"Armed periodic jobs across all live schedulers.",
		func() int64 { return sumShards(func(sh *shard) int { return sh.timers }) })
	telemetry.Default().GaugeFunc("flower_sched_queue_depth",
		"Queued runnable jobs across all live schedulers.",
		func() int64 {
			return sumShards(func(sh *shard) int {
				return sh.queued[ClassFlow] + sh.queued[ClassBatch]
			})
		})
}

// liveSchedulers is the set the occupancy gauges range over; New adds,
// Close removes.
var (
	liveMu         sync.Mutex
	liveSchedulers = map[*Scheduler]struct{}{}
)

func registerScheduler(s *Scheduler) {
	liveMu.Lock()
	liveSchedulers[s] = struct{}{}
	liveMu.Unlock()
}

func unregisterScheduler(s *Scheduler) {
	liveMu.Lock()
	delete(liveSchedulers, s)
	liveMu.Unlock()
}

// sumShards folds fn over every shard of every live scheduler, taking each
// shard's lock in turn. Snapshot-time only.
func sumShards(fn func(sh *shard) int) int64 {
	liveMu.Lock()
	scs := make([]*Scheduler, 0, len(liveSchedulers))
	for s := range liveSchedulers {
		scs = append(scs, s)
	}
	liveMu.Unlock()
	var total int64
	for _, s := range scs {
		for _, sh := range s.shards {
			sh.mu.Lock()
			total += int64(fn(sh))
			sh.mu.Unlock()
		}
	}
	return total
}
