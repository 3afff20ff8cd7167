package timeseries

// CopiedPoints exposes the compaction copy counter to the
// amortised-truncation regression test.
func CopiedPoints(s *Series) int64 { return s.copied }

// Head exposes the live-region offset for white-box assertions.
func Head(s *Series) int { return s.head }

// Runs reports how many runs hold v's values, and whether its value column
// is run-encoded at all.
func Runs(v View) (n int, encoded bool) { return len(v.vc.runs), v.vc.vals == nil }
