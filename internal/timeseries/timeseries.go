// Package timeseries provides the time-series container and the descriptive
// statistics used throughout the reproduction: by the metric store to answer
// period-statistic queries, by the dependency analyzer to align layer
// measurements, and by the experiment harness to summarise runs.
//
// Storage is columnar — a value column beside a time column — and neither
// column stores what it can compute. A series appended on one cadence
// (every metric a flow publishes advances on the simulation step) keeps
// only its first timestamp and step, point i sitting at t0 + i·step, so a
// window lookup is arithmetic; the first off-cadence append materialises
// one int64 slice of unix-nano timestamps (8 more bytes per datapoint,
// window lookups by binary search). The value column stores runs of
// (value, start), 16 bytes per run, while a series repeats its last value
// (a fleet size, a provisioned capacity, a throttle counter stuck at 0), so
// a constant series costs one run whatever its length; once runs cost more
// than explicit values would, it materialises one float64 slice, 8 bytes
// per datapoint. Either way the per-tick append writes at most two machine
// words, and retention pruning is an amortised-O(1) head drop instead of a
// copy of the surviving points. Read paths that do not need an owned copy
// use View, a zero-copy window over the columns, and aggregate runs without
// expanding them.
//
// Columns grow on demand: a series holds no storage until its first Append
// and then grows by append's amortised doubling, so an empty series costs
// its header only. New's capacity hint is for callers that know the final
// size (Resample, Materialize); it changes allocation count, never
// contents. Because growth may move the columns, a View is valid only until
// the next Append or DropBefore on its series.
package timeseries

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is a single timestamped observation.
type Point struct {
	T time.Time
	V float64
}

// Series is an append-only, time-ordered sequence of points. Appending out
// of order is an error at insert time rather than a silent reorder, because
// the simulation produces observations in clock order by construction and a
// violation indicates a wiring bug.
//
// Internally the series is columnar: a ValueColumn that is run-length
// encoded until runs stop paying, beside a TimeColumn that is
// cadence-encoded until an append breaks the cadence, with a head offset
// so DropBefore can discard old points without copying the survivors on
// every call.
type Series struct {
	// vc holds points [0, vc.n); the live region is [head, vc.n).
	vc ValueColumn
	// tc is indexed like vc. Cadence-encoded, its step is meaningful
	// once vc holds two points; with fewer, the next append sets it.
	tc   TimeColumn
	head int
	// copied counts points moved by compaction; the amortised-truncation
	// regression test reads it to assert bounded total copy work.
	copied int64
}

// compactMin is the head size below which DropBefore never compacts, so
// short series are not shuffled for a handful of dropped points.
const compactMin = 32

// New returns an empty series with capacity hint n. New(0) allocates
// nothing and run-length encodes its values until runs stop paying; a
// positive hint is for callers that know the final size (Resample,
// Materialize) and stores values explicitly from the start.
func New(n int) *Series {
	if n <= 0 {
		return &Series{}
	}
	return &Series{vc: ValueColumn{vals: make([]float64, 0, n)}}
}

// FromValues builds a series from evenly spaced values starting at start
// with the given step. It is primarily a test and analysis convenience.
func FromValues(start time.Time, step time.Duration, values []float64) *Series {
	s := New(len(values))
	base := start.UnixNano()
	for i, v := range values {
		s.push(base+int64(i)*int64(step), v)
	}
	return s
}

// nanoTime reconstructs the time.Time for a stored nanosecond timestamp.
// The simulation clock runs in UTC, so reconstructed times render and
// compare identically to the originals.
func nanoTime(n int64) time.Time { return time.Unix(0, n).UTC() }

// The int64-nanosecond range, as whole seconds and the nanoseconds past
// them: math.MinInt64 ns is minSec s + minNsec ns, and math.MaxInt64 ns is
// maxSec s + maxNsec ns (about 1677-09-21 to 2262-04-11).
const (
	nsPerSec = 1_000_000_000
	maxSec   = math.MaxInt64 / nsPerSec
	maxNsec  = math.MaxInt64 % nsPerSec
	minSec   = -maxSec - 1
	minNsec  = nsPerSec - maxNsec - 1
)

// nanos returns t in unix nanoseconds, and whether t lies in the
// int64-nanosecond range; outside it UnixNano wraps around.
func nanos(t time.Time) (int64, bool) {
	sec := t.Unix()
	ok := minSec < sec && sec < maxSec ||
		sec == minSec && t.Nanosecond() >= minNsec ||
		sec == maxSec && t.Nanosecond() <= maxNsec
	return t.UnixNano(), ok
}

// unixNano converts t for window comparisons. time.Time values outside the
// int64-nanosecond range (the zero Time used as an open query bound, or
// distant futures) clamp to the extremes so window selection still
// behaves as "everything before/after".
func unixNano(t time.Time) int64 {
	if tn, ok := nanos(t); ok {
		return tn
	}
	if t.Unix() < 0 {
		return math.MinInt64
	}
	return math.MaxInt64
}

// Append adds an observation. The timestamp must not precede the last
// appended timestamp, and must lie in the int64-nanosecond range (about
// 1677-09-21 to 2262-04-11).
func (s *Series) Append(t time.Time, v float64) error {
	tn, ok := nanos(t)
	if !ok {
		return fmt.Errorf("timeseries: append at %v is outside the int64-nanosecond range", t)
	}
	if n := s.vc.n; n > s.head {
		if last := s.tc.At(n - 1); tn < last {
			return fmt.Errorf("timeseries: append at %v precedes last point %v", t, nanoTime(last))
		}
	}
	s.push(tn, v)
	return nil
}

// push appends (tn, v) without the ordering check, keeping the time column
// cadence-encoded while tn continues the cadence and materialising it on
// the first point that does not.
func (s *Series) push(tn int64, v float64) {
	n := s.vc.n
	if n == s.head {
		// No live points: whatever the column held, it restarts at tn.
		s.vc.truncate()
		s.head = 0
		s.tc = TimeColumn{t0: tn}
	} else if s.tc.times == nil && !s.tc.extend(n, tn) {
		s.materialize()
	}
	if s.tc.times != nil {
		s.tc.times = append(s.tc.times, tn)
	}
	s.vc.push(v)
}

// materialize switches the time column to explicit timestamps, once, with
// room for as many points as an explicit value column holds or, when that
// is full or the values are runs, the room append's doubling would give,
// so the pending append does not copy the new column straight away.
func (s *Series) materialize() {
	n, c := s.vc.n, cap(s.vc.vals)
	if c <= n {
		c = 2 * n
	}
	times := make([]int64, n, c)
	for i := range times {
		times[i] = s.tc.At(i)
	}
	s.tc = TimeColumn{times: times}
}

// MustAppend is Append for callers that control the clock and treat
// out-of-order appends as programmer error.
func (s *Series) MustAppend(t time.Time, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Len reports the number of points.
func (s *Series) Len() int { return s.vc.n - s.head }

// At returns the i-th point.
func (s *Series) At(i int) Point {
	return Point{T: nanoTime(s.tc.At(s.head + i)), V: s.vc.at(s.head + i)}
}

// Last returns the most recent point and true, or a zero point and false if
// the series is empty.
func (s *Series) Last() (Point, bool) {
	if s.Len() == 0 {
		return Point{}, false
	}
	return Point{T: nanoTime(s.tc.At(s.vc.n - 1)), V: s.vc.last()}, true
}

// Values returns a copy of the observation values in time order.
func (s *Series) Values() []float64 {
	return s.ViewAll().CopyValues(make([]float64, 0, s.Len()))
}

// Reset empties the series in place, keeping its value column's encoding
// and capacity for reuse; the time column starts cadence-encoded again.
func (s *Series) Reset() {
	s.vc.truncate()
	s.tc = TimeColumn{}
	s.head = 0
}

// view returns the zero-copy view of the points at absolute indices
// [lo, hi).
func (s *Series) view(lo, hi int) View {
	return View{tc: s.tc, vc: s.vc}.sub(lo, hi)
}

// search returns the absolute index of the first live point with
// timestamp >= tn.
func (s *Series) search(tn int64) int {
	return s.tc.search(s.head, s.vc.n, tn)
}

// View returns a zero-copy window over the points p with from <= p.T < to.
// The view shares storage with s: it is valid only until the next Append or
// DropBefore, and callers that outlive the series must Materialize it.
func (s *Series) View(from, to time.Time) View {
	lo := s.search(unixNano(from))
	hi := s.search(unixNano(to))
	if hi < lo { // inverted window selects nothing
		hi = lo
	}
	return s.view(lo, hi)
}

// ViewAll returns a zero-copy view of the whole series (same validity
// caveats as View).
func (s *Series) ViewAll() View {
	return s.view(s.head, s.vc.n)
}

// Between returns the sub-series of points p with from <= p.T < to. The
// returned series shares no storage with s.
func (s *Series) Between(from, to time.Time) *Series {
	return s.View(from, to).Materialize()
}

// TailN returns a copy of the last n points (or all of them if fewer).
func (s *Series) TailN(n int) *Series {
	if n > s.Len() {
		n = s.Len()
	}
	return s.view(s.vc.n-n, s.vc.n).Materialize()
}

// DropBefore discards every point with timestamp earlier than t and reports
// how many were dropped. The cost is amortised O(1) per dropped point:
// points are logically dropped by advancing a head offset, and the
// surviving region is compacted to the front only once the dead prefix is
// at least as large as the live region, so the total copy work over the
// series' lifetime is bounded by the total number of appends. A
// run-encoded value column compacts by moving the runs that hold live
// points, not the points.
func (s *Series) DropBefore(t time.Time) int {
	lo := s.search(unixNano(t))
	dropped := lo - s.head
	if dropped <= 0 {
		return 0
	}
	s.head = lo
	if n := s.vc.n; s.head >= compactMin && 2*s.head >= n {
		live := n - s.head
		if s.tc.times != nil {
			copy(s.tc.times, s.tc.times[s.head:])
			s.tc.times = s.tc.times[:live]
		} else {
			s.tc.t0 += int64(s.head) * s.tc.step
		}
		s.vc.dropFront(s.head)
		s.copied += int64(live)
		s.head = 0
	}
	return dropped
}

// Copied returns the lifetime count of points moved by compaction — the
// observable cost of the amortised-truncation scheme.
func (s *Series) Copied() int64 { return s.copied }

// Agg identifies an aggregation function for Resample and period statistics.
type Agg int

// Supported aggregations.
const (
	AggMean Agg = iota
	AggSum
	AggMin
	AggMax
	AggCount
	AggP50
	AggP90
	AggP99
)

// String returns the CloudWatch-style statistic name.
func (a Agg) String() string {
	switch a {
	case AggMean:
		return "Average"
	case AggSum:
		return "Sum"
	case AggMin:
		return "Minimum"
	case AggMax:
		return "Maximum"
	case AggCount:
		return "SampleCount"
	case AggP50:
		return "p50"
	case AggP90:
		return "p90"
	case AggP99:
		return "p99"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Percentile reports whether the aggregation is a percentile, and which
// one (0..100): percentile buckets need their values gathered and sorted,
// every other aggregation streams.
func (a Agg) Percentile() (p float64, ok bool) {
	switch a {
	case AggP50:
		return 50, true
	case AggP90:
		return 90, true
	case AggP99:
		return 99, true
	}
	return 0, false
}

// Apply computes the aggregation over vs. It returns NaN for an empty input
// except AggCount and AggSum, which are 0.
func (a Agg) Apply(vs []float64) float64 { return a.ApplyWith(vs, nil) }

// ApplyWith is Apply with a reusable scratch buffer: percentile
// aggregations sort a copy of vs into sc instead of allocating a fresh
// slice per call. A nil sc falls back to a one-shot allocation.
func (a Agg) ApplyWith(vs []float64, sc *AggScratch) float64 {
	switch a {
	case AggCount:
		return float64(len(vs))
	case AggSum:
		return Sum(vs)
	}
	if len(vs) == 0 {
		return math.NaN()
	}
	switch a {
	case AggMean:
		return Mean(vs)
	case AggMin:
		return Min(vs)
	case AggMax:
		return Max(vs)
	}
	if p, ok := a.Percentile(); ok {
		return sc.percentile(vs, p)
	}
	return math.NaN()
}

// Resample buckets the series into consecutive windows of length period
// anchored at the first point's timestamp and aggregates each bucket. Empty
// buckets are skipped. The resulting point carries the bucket start time.
func (s *Series) Resample(period time.Duration, agg Agg) *Series {
	return s.ViewAll().Resample(period, agg)
}

// Mean returns the arithmetic mean of vs, or NaN if empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	return Sum(vs) / float64(len(vs))
}

// Sum returns the sum of vs (0 for empty input).
func Sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// Min returns the smallest value, or NaN if empty.
func Min(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value, or NaN if empty.
func Max(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of vs using linear
// interpolation between closest ranks. It copies vs before sorting.
func Percentile(vs []float64, p float64) float64 {
	return (*AggScratch)(nil).percentile(vs, p)
}

// AggScratch is a reusable sort buffer for percentile aggregations. The
// zero value is ready to use; it grows to the largest bucket it has seen
// and is reused across calls, so steady-state percentile queries allocate
// nothing. It is not safe for concurrent use.
type AggScratch struct {
	buf []float64
}

// percentile computes the p-th percentile of vs, sorting a copy held in the
// scratch buffer (or a throwaway slice when sc is nil).
func (sc *AggScratch) percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return Min(vs)
	}
	if p >= 100 {
		return Max(vs)
	}
	sorted := sc.sortBuf(len(vs))
	copy(sorted, vs)
	sort.Float64s(sorted)
	lo, hi, frac := percentileRank(len(sorted), p)
	return interpolate(sorted[lo], sorted[hi], frac)
}

// sortBuf returns a buffer of n values: the scratch buffer, grown as
// needed, or a throwaway slice when sc is nil.
func (sc *AggScratch) sortBuf(n int) []float64 {
	if sc == nil {
		return make([]float64, n)
	}
	if cap(sc.buf) < n {
		sc.buf = make([]float64, n)
	}
	return sc.buf[:n]
}

// AlignedValues trims x and y to their overlapping time range, resamples both
// onto period buckets with the mean aggregate, and returns equal-length value
// slices ready for correlation or regression. It returns nil slices when the
// series do not overlap.
func AlignedValues(x, y *Series, period time.Duration) (xs, ys []float64) {
	if x.Len() == 0 || y.Len() == 0 {
		return nil, nil
	}
	from := maxTime(x.At(0).T, y.At(0).T)
	to := minTime(x.At(x.Len()-1).T, y.At(y.Len()-1).T).Add(time.Nanosecond)
	xr := x.View(from, to).Resample(period, AggMean)
	yr := y.View(from, to).Resample(period, AggMean)
	n := xr.Len()
	if yr.Len() < n {
		n = yr.Len()
	}
	if n == 0 {
		return nil, nil
	}
	return xr.TailN(n).Values(), yr.TailN(n).Values()
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
