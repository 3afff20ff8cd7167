package httpapi

import (
	"net/http"
	"runtime"

	apiv1 "repro/api/v1"
	"repro/internal/sched"
)

// handleSchedulerStats serves GET /v1/scheduler: the execution plane's
// live shape and counters. The server reports the registry's scheduler —
// in the standard wiring (flowerd, or a Server built without WithLab) the
// lab engine runs on the same one, so the counters cover pacer ticks and
// trial chunks alike.
func (s *Server) handleSchedulerStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, schedulerStatsJSON(s.reg.Scheduler().Stats()))
}

// schedulerStatsJSON converts the internal stats snapshot to wire form.
func schedulerStatsJSON(st sched.Stats) apiv1.SchedulerStats {
	out := apiv1.SchedulerStats{
		Shards:          st.Shards,
		WorkersPerShard: st.WorkersPerShard,
		Capacity:        st.Capacity,
		FlowWeight:      st.FlowWeight,
		MaxCatchUp:      st.MaxCatchUp,
		WheelTick:       st.WheelTick.String(),
		Goroutines:      runtime.NumGoroutine(),
		Timers:          st.Timers,
		QueueDepth:      st.QueueDepth,
		ExecutedFlow:    st.ExecutedFlow,
		ExecutedBatch:   st.ExecutedBatch,
		LateRuns:        st.LateRuns,
		SkippedTicks:    st.SkippedTicks,
		Batches:         st.Batches,
		BatchJobs:       st.BatchJobs,
		MeanBatch:       st.MeanBatch(),
		MaxBatch:        st.MaxBatch,
		PerShard:        make([]apiv1.SchedulerShard, 0, len(st.PerShard)),
	}
	for _, row := range st.PerShard {
		wire := apiv1.SchedulerShard{
			Shard:         row.Shard,
			Timers:        row.Timers,
			FlowQueue:     row.FlowQueue,
			BatchQueue:    row.BatchQueue,
			QueueDepth:    row.QueueDepth,
			ExecutedFlow:  row.ExecutedFlow,
			ExecutedBatch: row.ExecutedBatch,
			LateRuns:      row.LateRuns,
			SkippedTicks:  row.SkippedTicks,
			Batches:       row.Batches,
			BatchJobs:     row.BatchJobs,
			MaxBatch:      row.MaxBatch,
			Latency: apiv1.LatencyHistogram{
				BoundsUS: make([]int64, 0, len(row.Latency.Bounds)),
				Counts:   append([]uint64(nil), row.Latency.Counts...),
				Count:    row.Latency.Count,
				MaxUS:    float64(row.Latency.Max.Microseconds()),
			},
		}
		for _, b := range row.Latency.Bounds {
			wire.Latency.BoundsUS = append(wire.Latency.BoundsUS, b.Microseconds())
		}
		if row.Latency.Count > 0 {
			wire.Latency.MeanUS = float64(row.Latency.Sum.Microseconds()) / float64(row.Latency.Count)
		}
		out.PerShard = append(out.PerShard, wire)
	}
	return out
}
