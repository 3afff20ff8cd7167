package sched

import (
	"time"

	"repro/internal/telemetry"
)

// latencyBounds are the histogram bucket upper bounds; executions slower
// than the last bound land in the overflow bucket. The range spans "pacer
// tick that did nothing" (tens of microseconds) to "trial chunk simulating
// many steps" (hundreds of milliseconds).
var latencyBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
}

const numLatencyBuckets = len(latencyBounds) + 1 // + overflow

func latencyBucket(d time.Duration) int {
	for i, b := range latencyBounds {
		if d <= b {
			return i
		}
	}
	return len(latencyBounds)
}

// ShardStats is one shard's view at a point in time.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Timers is the number of armed periodic jobs (wheel entries).
	Timers int
	// FlowQueue / BatchQueue are the run-queue depths per class;
	// QueueDepth is their sum.
	FlowQueue  int
	BatchQueue int
	QueueDepth int
	// ExecutedFlow / ExecutedBatch count completed executions per class.
	ExecutedFlow  uint64
	ExecutedBatch uint64
	// LateRuns counts periodic executions that started at least one full
	// interval behind schedule; SkippedTicks counts the intervals the
	// bounded catch-up policy dropped.
	LateRuns     uint64
	SkippedTicks uint64
	// Batches / BatchJobs count run batches executed by this shard's
	// loop and the jobs they carried; MaxBatch is the largest batch.
	Batches   uint64
	BatchJobs uint64
	MaxBatch  int
	// Latency is the shard's run-latency histogram (for pacer jobs, the
	// duration of the flow advance each tick performed).
	Latency telemetry.HistogramSnapshot
}

// Stats is a point-in-time snapshot of the whole execution plane.
type Stats struct {
	// Shards restates the scheduler's size.
	Shards int
	// Totals over all shards.
	Timers        int
	QueueDepth    int
	ExecutedFlow  uint64
	ExecutedBatch uint64
	LateRuns      uint64
	SkippedTicks  uint64
	Batches       uint64
	BatchJobs     uint64
	MaxBatch      int
	// PerShard holds each shard's row.
	PerShard []ShardStats
}

// Stats snapshots every shard. Shards are locked one at a time, so the
// snapshot is per-shard consistent, not globally atomic — fine for
// observability, which is its only purpose.
func (s *Scheduler) Stats() Stats {
	out := Stats{
		Shards:   len(s.shards),
		PerShard: make([]ShardStats, 0, len(s.shards)),
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		row := ShardStats{
			Shard:         sh.idx,
			Timers:        sh.timers,
			FlowQueue:     sh.queued[ClassFlow],
			BatchQueue:    sh.queued[ClassBatch],
			ExecutedFlow:  sh.executed[ClassFlow],
			ExecutedBatch: sh.executed[ClassBatch],
			LateRuns:      sh.lateRuns,
			SkippedTicks:  sh.skippedTicks,
			Batches:       sh.batches,
			BatchJobs:     sh.batchJobs,
			MaxBatch:      sh.maxBatch,
			Latency: telemetry.HistogramSnapshot{
				Bounds:   latencyBounds[:],
				Counts:   append([]uint64(nil), sh.latCounts[:]...),
				SumNanos: int64(sh.latSum),
				MaxNanos: int64(sh.latMax),
			},
		}
		sh.mu.Unlock()
		row.QueueDepth = row.FlowQueue + row.BatchQueue
		for _, c := range row.Latency.Counts {
			row.Latency.Count += c
		}
		out.Timers += row.Timers
		out.QueueDepth += row.QueueDepth
		out.ExecutedFlow += row.ExecutedFlow
		out.ExecutedBatch += row.ExecutedBatch
		out.LateRuns += row.LateRuns
		out.SkippedTicks += row.SkippedTicks
		out.Batches += row.Batches
		out.BatchJobs += row.BatchJobs
		if row.MaxBatch > out.MaxBatch {
			out.MaxBatch = row.MaxBatch
		}
		out.PerShard = append(out.PerShard, row)
	}
	return out
}
