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
		WorkersPerShard: 1,
		Capacity:        st.Shards,
		FlowWeight:      sched.FlowWeight,
		MaxCatchUp:      sched.MaxCatchUp,
		WheelTick:       sched.WheelTick.String(),
		Goroutines:      runtime.NumGoroutine(),
		Timers:          st.Timers,
		QueueDepth:      st.QueueDepth,
		ExecutedFlow:    st.ExecutedFlow,
		ExecutedBatch:   st.ExecutedBatch,
		LateRuns:        st.LateRuns,
		SkippedTicks:    st.SkippedTicks,
		Batches:         st.Batches,
		BatchJobs:       st.BatchJobs,
		MaxBatch:        st.MaxBatch,
		PerShard:        make([]apiv1.SchedulerShard, 0, len(st.PerShard)),
	}
	if st.Batches > 0 {
		out.MeanBatch = float64(st.BatchJobs) / float64(st.Batches)
	}
	for _, row := range st.PerShard {
		out.PerShard = append(out.PerShard, apiv1.SchedulerShard{
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
			Latency:       *histogramJSON(&row.Latency),
		})
	}
	return out
}
