package metricstore_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/timeseries"
)

// legacyStore is the test oracle for the columnar store: a frozen copy of
// the metric pipeline as it stood before the columnar, handle-based
// rebuild. One []legacyPoint slice per series, a canonical key string
// rebuilt on every Put, retention pruning that re-copies the surviving
// window on each append, window queries that materialise a copy of the
// window, and percentile statistics that copy-and-sort per call.
// TestColumnarStoreMatchesLegacyRandomised holds the store to it
// bit-for-bit. It must not grow features — it is a measuring stick, not
// a second implementation.

// legacyPoint mirrors the pre-rebuild row-oriented point.
type legacyPoint struct {
	T time.Time
	V float64
}

// legacySeries is the pre-columnar row-store series.
type legacySeries struct {
	points []legacyPoint
}

// Append adds an observation with the old ordering check.
func (s *legacySeries) Append(t time.Time, v float64) error {
	if n := len(s.points); n > 0 && t.Before(s.points[n-1].T) {
		return fmt.Errorf("timeseries: append at %v precedes last point %v", t, s.points[n-1].T)
	}
	s.points = append(s.points, legacyPoint{T: t, V: v})
	return nil
}

// Len reports the number of points.
func (s *legacySeries) Len() int { return len(s.points) }

// At returns the i-th point.
func (s *legacySeries) At(i int) legacyPoint { return s.points[i] }

// Last returns the newest point.
func (s *legacySeries) Last() (legacyPoint, bool) {
	if len(s.points) == 0 {
		return legacyPoint{}, false
	}
	return s.points[len(s.points)-1], true
}

// Values returns a copy of the values, as the old Series.Values did.
func (s *legacySeries) Values() []float64 {
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.V
	}
	return out
}

// Between returns a copied sub-series, the old windowing primitive.
func (s *legacySeries) Between(from, to time.Time) *legacySeries {
	lo := sort.Search(len(s.points), func(i int) bool { return !s.points[i].T.Before(from) })
	hi := sort.Search(len(s.points), func(i int) bool { return !s.points[i].T.Before(to) })
	out := &legacySeries{points: make([]legacyPoint, 0, hi-lo)}
	out.points = append(out.points, s.points[lo:hi]...)
	return out
}

// legacyApply is the old Agg.Apply: copy+sort percentiles, no scratch.
func legacyApply(a timeseries.Agg, vs []float64) float64 {
	switch a {
	case timeseries.AggCount:
		return float64(len(vs))
	case timeseries.AggSum:
		return timeseries.Sum(vs)
	}
	if len(vs) == 0 {
		return math.NaN()
	}
	switch a {
	case timeseries.AggMean:
		return timeseries.Mean(vs)
	case timeseries.AggMin:
		return timeseries.Min(vs)
	case timeseries.AggMax:
		return timeseries.Max(vs)
	case timeseries.AggP50:
		return legacyPercentile(vs, 50)
	case timeseries.AggP90:
		return legacyPercentile(vs, 90)
	case timeseries.AggP99:
		return legacyPercentile(vs, 99)
	default:
		return math.NaN()
	}
}

// legacyPercentile is the old copy-and-sort-per-call percentile.
func legacyPercentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return timeseries.Min(vs)
	}
	if p >= 100 {
		return timeseries.Max(vs)
	}
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Resample is the old bucket-slice resampler.
func (s *legacySeries) Resample(period time.Duration, agg timeseries.Agg) *legacySeries {
	if period <= 0 {
		panic("timeseries: resample period must be positive")
	}
	out := &legacySeries{}
	if len(s.points) == 0 {
		return out
	}
	anchor := s.points[0].T
	var bucket []float64
	bucketIdx := 0
	flush := func() {
		if len(bucket) == 0 {
			return
		}
		out.points = append(out.points, legacyPoint{
			T: anchor.Add(time.Duration(bucketIdx) * period),
			V: legacyApply(agg, bucket),
		})
		bucket = bucket[:0]
	}
	for _, p := range s.points {
		idx := int(p.T.Sub(anchor) / period)
		if idx != bucketIdx {
			flush()
			bucketIdx = idx
		}
		bucket = append(bucket, p.V)
	}
	flush()
	return out
}

// legacyQuery mirrors the old metricstore.Query.
type legacyQuery struct {
	Namespace  string
	Name       string
	Dimensions map[string]string
	From, To   time.Time
	Period     time.Duration
	Stat       timeseries.Agg
}

// legacyStore is the pre-rebuild metric store: a key string rebuilt per
// operation, copy-based retention pruning. (Its global lock is left out:
// the oracle is driven from one goroutine.)
type legacyStore struct {
	series    map[string]*legacySeries
	retention time.Duration
}

func newLegacyStore() *legacyStore {
	return &legacyStore{series: make(map[string]*legacySeries)}
}

// SetRetention mirrors the old lazy-on-insert pruning window.
func (s *legacyStore) SetRetention(d time.Duration) { s.retention = d }

// legacyKey is the old MetricID.Key: fresh allocations per call.
func legacyKey(ns, name string, dims map[string]string) string {
	var b strings.Builder
	b.WriteString(ns)
	b.WriteByte('|')
	b.WriteString(name)
	b.WriteByte('|')
	keys := make([]string, 0, len(dims))
	for k := range dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(dims[k])
	}
	return b.String()
}

// Put is the old write path: key build, append, and — once history
// exceeds the retention window — a full copy of the surviving points on
// every insert.
func (s *legacyStore) Put(ns, name string, dims map[string]string, t time.Time, v float64) error {
	key := legacyKey(ns, name, dims)
	ts, ok := s.series[key]
	if !ok {
		ts = &legacySeries{}
	}
	if err := ts.Append(t, v); err != nil {
		return fmt.Errorf("metricstore: put %s %s: %w", ns, name, err)
	}
	if s.retention > 0 {
		cutoff := t.Add(-s.retention)
		if first := ts.At(0).T; first.Before(cutoff) {
			ts = ts.Between(cutoff, t.Add(time.Nanosecond))
		}
	}
	s.series[key] = ts
	return nil
}

// GetStatistics is the old read path: key build, window copy, bucket-slice
// resample.
func (s *legacyStore) GetStatistics(q legacyQuery) (*legacySeries, error) {
	ts, ok := s.series[legacyKey(q.Namespace, q.Name, q.Dimensions)]
	if !ok {
		return nil, fmt.Errorf("metricstore: no such metric %s %s", q.Namespace, q.Name)
	}
	to := q.To
	if to.IsZero() {
		if last, ok := ts.Last(); ok {
			to = last.T.Add(time.Nanosecond)
		}
	}
	raw := ts.Between(q.From, to)
	if q.Period <= 0 {
		return raw, nil
	}
	return raw.Resample(q.Period, q.Stat), nil
}

// Latest is the old newest-datapoint read.
func (s *legacyStore) Latest(ns, name string, dims map[string]string) (legacyPoint, bool) {
	ts, ok := s.series[legacyKey(ns, name, dims)]
	if !ok {
		return legacyPoint{}, false
	}
	return ts.Last()
}

// WindowStat replicates the old sensor measurement: GetStatistics (window
// copy), Values (second copy), then the statistic.
func (s *legacyStore) WindowStat(q legacyQuery) (float64, int, error) {
	series, err := s.GetStatistics(legacyQuery{
		Namespace: q.Namespace, Name: q.Name, Dimensions: q.Dimensions,
		From: q.From, To: q.To,
	})
	if err != nil {
		return 0, 0, err
	}
	vals := series.Values()
	return legacyApply(q.Stat, vals), len(vals), nil
}
