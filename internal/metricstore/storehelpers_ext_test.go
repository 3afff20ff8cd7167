package metricstore_test

import (
	"time"

	"repro/internal/metricstore"
	"repro/internal/timeseries"
)

// storeLatest reads a metric's newest datapoint through the handle tier
// (the map-keyed Store.Latest wrapper was removed once callers moved to
// handles).
func storeLatest(s *metricstore.Store, ns, name string, dims map[string]string) (timeseries.Point, bool) {
	h, ok := s.Lookup(ns, name, dims)
	if !ok {
		return timeseries.Point{}, false
	}
	return h.Latest()
}

// storeRaw reads a copy of a metric's full stored series through the
// handle tier, or nil when the metric has never been published.
func storeRaw(s *metricstore.Store, ns, name string, dims map[string]string) *timeseries.Series {
	h, ok := s.Lookup(ns, name, dims)
	if !ok {
		return nil
	}
	return h.Window(metricstore.WindowQuery{})
}

// storePut appends one datapoint the way a per-call writer must: resolve
// (interning if new) the metric's handle, then append through it. A
// failure is a test wiring bug.
func storePut(s *metricstore.Store, ns, name string, dims map[string]string, t time.Time, v float64) {
	s.MustHandle(ns, name, dims).MustAppend(t, v)
}
