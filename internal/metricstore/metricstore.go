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
// Memory follows use. A metric's identity (its canonical key and
// dimension copy) is interned once per process and shared by every store
// that holds the metric: Flower's sensors read the same per-platform
// metric set for every flow, so a fleet of like flows keeps one copy of
// each identity, not one per flow. The table counts the stores holding
// each identity and drops it once the last of them is collected, so it
// grows with the metrics in use, not with every name a deleted flow ever
// published. A store entry holds only what is per-flow: the
// shared identity, the metric's lock and its series, whose columns are
// not allocated until datapoints arrive and then grow by append, so a
// flow that has not ticked holds no series data. Growth may move a
// series' columns, which is why every zero-copy read (Each,
// Handle.ViewWindow) hands out its timeseries.View under the metric's
// lock and only for the duration of the callback.
package metricstore

import (
	"fmt"
	"runtime"
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
//
// A MetricID a store returns (Handle.ID, Each, ListMetrics) carries the
// interned identity's Dimensions map, which is shared process-wide by
// every store holding that metric: it is read-only, and a caller that
// needs a different dimension set builds a fresh map.
type MetricID struct {
	Namespace  string
	Name       string
	Dimensions map[string]string
}

// Key returns the canonical map key for the metric: namespace, name, and
// the dimension pairs sorted by dimension name.
func (id MetricID) Key() string {
	sc := keyPool.Get().(*keyScratch)
	key := string(sc.appendKey(id.Namespace, id.Name, id.Dimensions))
	keyPool.Put(sc)
	return key
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

// keyPool is the process's one pool of key scratch; a pool per store would
// keep per-P arrays alive for each store's whole life.
var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

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

// ident is one metric's identity: the MetricID every store reports for it
// and its canonical key, which is also the key of each store's series map.
// Both are immutable; refs counts the stores holding the identity that
// have not been collected.
type ident struct {
	id   MetricID
	key  string
	refs int // guarded by idents.mu
}

// idents is the process-wide identity table, keyed by canonical key. A
// store takes a reference when it creates an entry and gives its
// references back once it is collected, and the table drops an identity no
// store holds: it grows with the distinct metrics in use, not with every
// name a deleted flow ever published. Only entry creation and a collected
// store's release take its lock.
var idents = struct {
	mu sync.Mutex
	m  map[string]*ident
}{m: make(map[string]*ident)}

// intern returns the identity for the canonical key with one more
// reference, creating it (and a copy of dims, so callers can reuse their
// map) if no store holds it.
func intern(key []byte, ns, name string, dims map[string]string) *ident {
	idents.mu.Lock()
	defer idents.mu.Unlock()
	id := idents.m[string(key)]
	if id == nil {
		cp := make(map[string]string, len(dims))
		for k, v := range dims {
			cp[k] = v
		}
		id = &ident{id: MetricID{Namespace: ns, Name: name, Dimensions: cp}, key: string(key)}
		idents.m[id.key] = id
		telIdentities.Set(int64(len(idents.m)))
	}
	id.refs++
	return id
}

// heldIdents lists the identities a store holds a reference on. It is a
// separate object that references no store, so a cleanup on the store can
// give the references back once the store is collected. Handing the
// cleanup the store's series map instead would keep a dropped flow's
// series alive until the collection after the cleanup ran.
type heldIdents struct{ idents []*ident }

// release gives back a collected store's references, dropping the
// identities no store holds any more, and takes the store's series off the
// flower_store_entries gauge.
func release(h *heldIdents) {
	idents.mu.Lock()
	defer idents.mu.Unlock()
	for _, id := range h.idents {
		if id.refs--; id.refs == 0 {
			delete(idents.m, id.key)
		}
	}
	telIdentities.Set(int64(len(idents.m)))
	telEntries.Add(-int64(len(h.idents)))
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

	held *heldIdents // guarded by mu
}

// entry is what a store keeps per metric: the shared identity, and the
// metric's own lock, series and reusable query scratch.
type entry struct {
	ident *ident

	mu      sync.Mutex
	ts      timeseries.Series
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
		held:   new(heldIdents),
	}
	runtime.AddCleanup(s, release, s.held)
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
	sc := keyPool.Get().(*keyScratch)
	e := s.get(sc.appendKey(ns, name, dims))
	keyPool.Put(sc)
	return e
}

// get finds the entry under a canonical key.
func (s *Store) get(key []byte) *entry {
	s.mu.RLock()
	e := s.series[string(key)]
	s.mu.RUnlock()
	return e
}

// entryFor finds or creates the entry for the metric. Only a first-time
// creation allocates (the entry, and the identity if no store in the
// process holds it yet) or takes the store's write lock and, under it, the
// identity table's lock.
func (s *Store) entryFor(ns, name string, dims map[string]string) (*entry, error) {
	if ns == "" || name == "" {
		return nil, fmt.Errorf("metricstore: namespace and name are required")
	}
	sc := keyPool.Get().(*keyScratch)
	defer keyPool.Put(sc)
	key := sc.appendKey(ns, name, dims)
	if e := s.get(key); e != nil {
		return e, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.series[string(key)]; ok {
		return e, nil
	}
	id := intern(key, ns, name, dims)
	// The zero Series has no capacity: handles are interned at flow build
	// time, before (or without ever) publishing, and a fleet interns tens
	// of thousands. Append growth is amortised O(1), so the columns cost
	// what the metric has actually published.
	e := &entry{ident: id}
	s.series[id.key] = e
	s.held.idents = append(s.held.idents, id)
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
		return fmt.Errorf("metricstore: put %s: %w", e.ident.id, err)
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
		if ns == "" || e.ident.id.Namespace == ns {
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
		fn(e.ident.id, e.ts.ViewAll())
		e.mu.Unlock()
	}
}

// ListMetrics returns the IDs of all published metrics in the namespace
// (all namespaces if ns is empty), sorted by key for deterministic output.
func (s *Store) ListMetrics(ns string) []MetricID {
	entries := s.sortedEntries(ns)
	out := make([]MetricID, len(entries))
	for i, e := range entries {
		out[i] = e.ident.id
	}
	return out
}

// Namespaces returns the distinct namespaces with published metrics,
// sorted.
func (s *Store) Namespaces() []string {
	set := make(map[string]bool)
	for _, e := range s.sortedEntries("") {
		set[e.ident.id.Namespace] = true
	}
	out := make([]string, 0, len(set))
	for ns := range set {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}
