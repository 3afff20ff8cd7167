// Package metricstore implements the CloudWatch analogue of the
// reproduction: a namespaced repository of timestamped metrics with
// dimension filtering, period statistics, retention, and threshold alarms.
//
// Every simulated subsystem (stream, compute, kvstore, workload, billing)
// publishes its per-tick measurements here, and every Flower component
// (sensors, the dependency analyzer, the cross-platform monitor) reads them
// back — exactly the role CloudWatch plays in the paper's architecture
// (Fig. 3): "Flower's sensor module periodically collects live data from
// multiple sources such as CloudWatch".
//
// Every read and write goes through a handle: Store.Handle interns a
// metric's identity once (Store.Lookup finds a published one without
// creating it) and returns a *Handle whose Append, Latest, Stat and Window
// operate under that metric's own lock with no per-call key construction —
// per-tick publishers and sensors resolve their handles at build time and
// stay allocation-free afterwards. The store-level lock is only ever held
// to create or look up entries, never while touching series data. The
// hotpath analyzer in internal/analysis machine-checks that per-tick
// packages resolve handles outside their loops.
//
// Memory follows use: interning a metric allocates its identity (key,
// dimension copy, entry) but no column storage, and the columns then grow
// by append as datapoints arrive, so a flow that has not ticked holds no
// series data. Growth may move a series' columns, which is why every
// zero-copy read (Each, Handle.ViewWindow) hands out its timeseries.View
// under the metric's lock and only for the duration of the callback.
package metricstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/timeseries"
)

// MetricID identifies one metric stream: a namespace (one per simulated
// platform, e.g. "Ingestion/Stream"), a metric name, and a dimension set
// (e.g. StreamName=clicks).
type MetricID struct {
	Namespace  string
	Name       string
	Dimensions map[string]string
}

// Key returns the canonical map key for the metric: namespace, name, and
// the dimension pairs sorted by dimension name.
func (id MetricID) Key() string {
	var sc keyScratch
	return string(sc.appendKey(id.Namespace, id.Name, id.Dimensions))
}

// String renders the ID in a human-readable form for dashboards and errors.
func (id MetricID) String() string {
	key := id.Key()
	return strings.ReplaceAll(key, "|", " ")
}

// keyScratch holds the reusable buffers lookup builds canonical keys into,
// so resolving an existing metric (Lookup, Handle) allocates nothing for
// key construction.
type keyScratch struct {
	buf  []byte
	keys []string
}

// appendKey renders the canonical key into the scratch buffer and returns
// it; the result is only valid until the scratch is reused.
func (sc *keyScratch) appendKey(ns, name string, dims map[string]string) []byte {
	b := append(sc.buf[:0], ns...)
	b = append(b, '|')
	b = append(b, name...)
	b = append(b, '|')
	keys := sc.keys[:0]
	for k := range dims {
		keys = append(keys, k)
	}
	// Insertion sort: dimension sets have a handful of keys at most, and
	// sort.Strings would force keys to escape.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, dims[k]...)
	}
	sc.buf = b
	sc.keys = keys
	return b
}

// Store is the metric repository. It is safe for concurrent use: entry
// creation takes the store lock, while appends and queries synchronise on
// the individual metric's lock, so writers of different metrics never
// contend.
type Store struct {
	mu     sync.RWMutex
	series map[string]*entry
	alarms map[string]*Alarm

	// retention is the pruning window in nanoseconds (0 keeps everything);
	// atomic so the per-append read does not touch the store lock.
	retention atomic.Int64

	keyPool sync.Pool // *keyScratch
}

// entry is one metric's series plus its lock and reusable query scratch.
type entry struct {
	id MetricID

	mu      sync.Mutex
	ts      *timeseries.Series
	scratch timeseries.AggScratch // percentile sort buffer, guarded by mu
}

// published reports whether the metric has any datapoints yet. Handles
// intern a metric's identity at build time, before its publisher has
// ticked; the read surface (queries, listings, lookups) treats such
// not-yet-published entries as absent, exactly as when entries were only
// created on first Put.
func (e *entry) published() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ts.Len() > 0
}

// NewStore returns an empty store that retains all datapoints.
func NewStore() *Store {
	s := &Store{
		series: make(map[string]*entry),
		alarms: make(map[string]*Alarm),
	}
	s.keyPool.New = func() any { return new(keyScratch) }
	return s
}

// SetRetention bounds how much history appends keep per metric; datapoints
// older than d relative to the newest datapoint of the same metric are
// dropped lazily on insert. Zero disables pruning.
func (s *Store) SetRetention(d time.Duration) {
	s.retention.Store(int64(d))
}

// lookup finds the entry for the metric without creating it, building the
// key in pooled scratch so the steady state allocates nothing.
func (s *Store) lookup(ns, name string, dims map[string]string) *entry {
	sc := s.keyPool.Get().(*keyScratch)
	key := sc.appendKey(ns, name, dims)
	s.mu.RLock()
	e := s.series[string(key)]
	s.mu.RUnlock()
	s.keyPool.Put(sc)
	return e
}

// entryFor finds or creates the entry for the metric. Only a first-time
// creation allocates (the interned key string and a defensive copy of the
// dimension map) or takes the store's write lock.
func (s *Store) entryFor(ns, name string, dims map[string]string) (*entry, error) {
	if ns == "" || name == "" {
		return nil, fmt.Errorf("metricstore: namespace and name are required")
	}
	if e := s.lookup(ns, name, dims); e != nil {
		return e, nil
	}
	// Copy dims so callers can reuse their map.
	cp := make(map[string]string, len(dims))
	for k, v := range dims {
		cp[k] = v
	}
	id := MetricID{Namespace: ns, Name: name, Dimensions: cp}
	key := id.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.series[key]; ok {
		return e, nil
	}
	// No capacity up front: handles are interned at flow build time, before
	// (or without ever) publishing, and a fleet interns tens of thousands.
	// Append growth is amortised O(1), so the columns cost what the metric
	// has actually published.
	e := &entry{id: id, ts: timeseries.New(0)}
	s.series[key] = e
	telEntries.Inc()
	return e, nil
}

// append records one observation under the entry's lock: ordered append
// and amortised retention pruning. The telemetry at the bottom is
// hot-path safe: an atomic counter add, and trace timing only when a
// sampled tick trace is live (one atomic pointer load otherwise).
func (s *Store) append(e *entry, t time.Time, v float64) error {
	var traceStart time.Time
	tr := telemetry.Traces.Active()
	if tr != nil {
		traceStart = telemetry.Now()
	}
	e.mu.Lock()
	if err := e.ts.Append(t, v); err != nil {
		e.mu.Unlock()
		return fmt.Errorf("metricstore: put %s: %w", e.id, err)
	}
	if ret := s.retention.Load(); ret > 0 {
		copiedBefore := e.ts.Copied()
		if dropped := e.ts.DropBefore(t.Add(-time.Duration(ret))); dropped > 0 {
			telRetentionDropped.Add(uint64(dropped))
			if d := e.ts.Copied() - copiedBefore; d > 0 {
				telCompactionCopied.Add(uint64(d))
			}
		}
	}
	e.mu.Unlock()
	telAppends.Inc()
	if tr != nil {
		tr.AddAppend(telemetry.SinceNanos(traceStart))
	}
	return nil
}

// resolveTo implements the shared open-ended-window rule — a zero to
// means "through the newest datapoint" — for every windowed read (window,
// Handle.Stat, Handle.ViewWindow). It must be called under e.mu.
func (e *entry) resolveTo(to time.Time) time.Time {
	if to.IsZero() {
		if last, ok := e.ts.Last(); ok {
			return last.T.Add(time.Nanosecond)
		}
	}
	return to
}

// window answers a statistics query against one entry: the raw points in
// [from, to) when period is zero, otherwise the period-bucketed statistic.
// A zero to means "through the newest datapoint".
func (s *Store) window(e *entry, from, to time.Time, period time.Duration, stat timeseries.Agg) *timeseries.Series {
	e.mu.Lock()
	defer e.mu.Unlock()
	v := e.ts.View(from, e.resolveTo(to))
	if period <= 0 {
		return v.Materialize()
	}
	// Presize the output: growing the columns append by append is the read
	// path's dominant allocation source.
	return v.ResampleInto(timeseries.New(v.BucketHint(period)), period, stat, &e.scratch)
}

// sortedEntries snapshots the published entry set sorted by canonical key.
func (s *Store) sortedEntries(ns string) []*entry {
	s.mu.RLock()
	keys := make([]string, 0, len(s.series))
	for k, e := range s.series {
		if ns == "" || e.id.Namespace == ns {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	entries := make([]*entry, len(keys))
	for i, k := range keys {
		entries[i] = s.series[k]
	}
	s.mu.RUnlock()
	out := entries[:0]
	for _, e := range entries {
		if e.published() {
			out = append(out, e)
		}
	}
	return out
}

// Each visits every published metric sorted by canonical key, passing a
// zero-copy view of its series taken under the metric's lock. The view is
// only valid during the callback; the callback must not call back into the
// store for the same metric.
func (s *Store) Each(fn func(id MetricID, v timeseries.View)) {
	for _, e := range s.sortedEntries("") {
		e.mu.Lock()
		fn(e.id, e.ts.ViewAll())
		e.mu.Unlock()
	}
}

// ListMetrics returns the IDs of all published metrics in the namespace
// (all namespaces if ns is empty), sorted by key for deterministic output.
func (s *Store) ListMetrics(ns string) []MetricID {
	entries := s.sortedEntries(ns)
	out := make([]MetricID, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// Namespaces returns the distinct namespaces with published metrics,
// sorted.
func (s *Store) Namespaces() []string {
	set := make(map[string]bool)
	for _, e := range s.sortedEntries("") {
		set[e.id.Namespace] = true
	}
	out := make([]string, 0, len(set))
	for ns := range set {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}
