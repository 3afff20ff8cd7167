package query

import (
	"time"

	"repro/internal/metricstore"
)

// storePut appends one datapoint the way a per-call writer must: resolve
// (interning if new) the metric's handle, then append through it. A
// failure is a test wiring bug.
func storePut(s *metricstore.Store, ns, name string, dims map[string]string, t time.Time, v float64) {
	s.MustHandle(ns, name, dims).MustAppend(t, v)
}
