package metricstore

import (
	"time"

	"repro/internal/timeseries"
)

// Handle is an interned reference to one metric's series. Resolving a
// handle pays the key construction and map lookup once; every operation on
// the handle afterwards synchronises only on that metric's lock and
// performs no per-call key work or allocation, which is what keeps the
// per-tick publish/sense path flat no matter how many metrics the store
// holds. Handles are safe for concurrent use and remain valid for the life
// of the store.
type Handle struct {
	s *Store
	e *entry
}

// Handle interns the metric (creating its series if absent) and returns
// the hot-path reference to it. Components that publish or read the same
// metric every tick should call this once at build time.
func (s *Store) Handle(namespace, name string, dims map[string]string) (*Handle, error) {
	e, err := s.entryFor(namespace, name, dims)
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, e: e}, nil
}

// MustHandle is Handle for wiring code where failure is a bug.
func (s *Store) MustHandle(namespace, name string, dims map[string]string) *Handle {
	h, err := s.Handle(namespace, name, dims)
	if err != nil {
		panic(err)
	}
	return h
}

// Lookup returns a handle to a metric that has published at least one
// datapoint, without creating anything — the resolution path for sensors
// and monitors that must not register metrics the simulation has not
// published yet (an interned-but-unpublished handle target is still
// reported as absent).
func (s *Store) Lookup(namespace, name string, dims map[string]string) (*Handle, bool) {
	e := s.lookup(namespace, name, dims)
	if e == nil || !e.published() {
		return nil, false
	}
	return &Handle{s: s, e: e}, true
}

// ID returns the metric's canonical identity. The dimension map is the
// process-wide interned copy and must not be mutated.
func (h *Handle) ID() MetricID { return h.e.ident.id }

// Append records one observation; the timestamp must not precede the
// metric's newest datapoint. Retention pruning runs under the metric's
// lock.
func (h *Handle) Append(t time.Time, v float64) error {
	return h.s.append(h.e, t, v)
}

// MustAppend is Append for publishers that own the clock.
func (h *Handle) MustAppend(t time.Time, v float64) {
	if err := h.Append(t, v); err != nil {
		panic(err)
	}
}

// Latest returns the metric's most recent datapoint.
func (h *Handle) Latest() (timeseries.Point, bool) {
	h.e.mu.Lock()
	defer h.e.mu.Unlock()
	return h.e.ts.Last()
}

// Stat computes one statistic over the raw datapoints in [from, to) in a
// single pass, without materialising the window; a zero to means "through
// the newest datapoint". n reports how many points the window held (the
// statistic is NaN when n is 0, except count and sum). Percentile
// statistics sort into the entry's reusable scratch, so the steady state
// allocates nothing.
func (h *Handle) Stat(from, to time.Time, stat timeseries.Agg) (v float64, n int) {
	e := h.e
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.ts.View(from, e.resolveTo(to))
	return w.Aggregate(stat, &e.scratch), w.Len()
}

// WindowQuery selects datapoints for Handle.Window: the half-open interval
// [From, To) — a zero To meaning "through the newest datapoint" — bucketed
// by Period with Stat (zero Period returns the raw points).
type WindowQuery struct {
	From, To time.Time
	Period   time.Duration
	Stat     timeseries.Agg
}

// Window returns the queried window as an independent series: the raw
// points, or CloudWatch-style period statistics with buckets anchored at
// the window's first point.
func (h *Handle) Window(q WindowQuery) *timeseries.Series {
	return h.s.window(h.e, q.From, q.To, q.Period, q.Stat)
}

// ViewWindow runs fn with a zero-copy view of the datapoints in [from, to)
// — a zero to means "through the newest datapoint" — plus the entry's
// reusable percentile scratch, all under the metric's lock. This is the
// query engine's evaluation hook: an operator chain streams over the view
// in place and materialises only its (usually much smaller) output. fn
// must not retain the view or the scratch past the call, and must not call
// back into the store for the same metric.
func (h *Handle) ViewWindow(from, to time.Time, fn func(v timeseries.View, sc *timeseries.AggScratch)) {
	e := h.e
	e.mu.Lock()
	defer e.mu.Unlock()
	fn(e.ts.View(from, e.resolveTo(to)), &e.scratch)
}
