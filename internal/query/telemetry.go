package query

import "repro/internal/telemetry"

// The flower_query_* family: every query counted by outcome, every result
// row accounted, and plan/exec latency as histograms. All instruments are
// process-wide (one engine surface per process) and allocation-free on
// the observation path, like the rest of the telemetry plane.
var (
	telQueries = telemetry.Default().CounterVec("flower_query_queries_total",
		"Queries handled by the query engine, by outcome (ok, invalid).", "outcome")
	telRows = telemetry.Default().Counter("flower_query_rows_total",
		"Result rows (points) streamed out of the query engine.")
	telPlanSeconds = telemetry.Default().Histogram("flower_query_plan_seconds",
		"Query parse+compile+plan latency.", telemetry.DefLatencyBounds)
	telExecSeconds = telemetry.Default().Histogram("flower_query_exec_seconds",
		"Query execution latency.", telemetry.DefLatencyBounds)
)
