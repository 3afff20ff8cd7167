package metricstore

import "repro/internal/telemetry"

// Process-wide store telemetry. All Store instances aggregate: the plane
// view cares about total append traffic and total resident series, not
// which store they live in. Entries over identities is how many stores
// share each identity on average. The append-path instruments are chosen to
// preserve Handle.Append's 0 allocs/op: one atomic counter add, one atomic
// trace-pointer load, and — only while a sampled tick trace is active — a
// pair of wall-clock reads.
var (
	telAppends = telemetry.Default().Counter("flower_store_appends_total",
		"Datapoints appended across all metric stores.")
	telEntries = telemetry.Default().Gauge("flower_store_entries",
		"Metric series resident across all live metric stores.")
	telIdentities = telemetry.Default().Gauge("flower_store_identities",
		"Metric identities in the process-wide table the stores share.")
	telCompactionCopied = telemetry.Default().Counter("flower_store_compaction_copied_points_total",
		"Points moved by retention compaction across all metric stores.")
	telRetentionDropped = telemetry.Default().Counter("flower_store_retention_dropped_total",
		"Datapoints discarded by the retention window across all metric stores.")
)
