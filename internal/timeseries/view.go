package timeseries

import "time"

// View is a zero-copy window over a Series' columns. It shares storage with
// the series it was taken from and is valid only until that series is next
// mutated (Append, DropBefore, Reset); the metric store therefore only
// exposes views under the owning entry's lock. A View is a value — slicing
// and passing it copies two slice headers, never the data.
type View struct {
	times []int64
	vals  []float64
}

// Len reports the number of points in the view.
func (v View) Len() int { return len(v.times) }

// At returns the i-th point.
func (v View) At(i int) Point { return Point{T: nanoTime(v.times[i]), V: v.vals[i]} }

// NanoAt returns the i-th timestamp in unix nanoseconds without
// reconstructing a time.Time.
func (v View) NanoAt(i int) int64 { return v.times[i] }

// ValueAt returns the i-th value.
func (v View) ValueAt(i int) float64 { return v.vals[i] }

// Last returns the most recent point and true, or a zero point and false
// for an empty view.
func (v View) Last() (Point, bool) {
	if len(v.times) == 0 {
		return Point{}, false
	}
	return v.At(len(v.times) - 1), true
}

// Values exposes the underlying value column. The slice is shared with the
// series — callers must treat it as read-only and must not retain it past
// the view's validity window; use CopyValues or Materialize for an owned
// copy.
func (v View) Values() []float64 { return v.vals }

// CopyValues appends the view's values to dst and returns the extended
// slice, so a caller-held buffer is reused across windows.
func (v View) CopyValues(dst []float64) []float64 { return append(dst, v.vals...) }

// CopyColumns appends the view's raw columns to ts and vs and returns the
// extended slices — the allocation-light export path used by snapshots.
func (v View) CopyColumns(ts []int64, vs []float64) ([]int64, []float64) {
	return append(ts, v.times...), append(vs, v.vals...)
}

// Slice narrows the view to points p with from <= p.T < to by binary
// search, still without copying.
func (v View) Slice(from, to time.Time) View {
	lo := searchNanos(v.times, unixNano(from))
	hi := searchNanos(v.times, unixNano(to))
	if hi < lo { // inverted window selects nothing
		hi = lo
	}
	return View{times: v.times[lo:hi], vals: v.vals[lo:hi]}
}

func searchNanos(times []int64, tn int64) int {
	lo, hi := 0, len(times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if times[mid] < tn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Materialize copies the view into an independent Series.
func (v View) Materialize() *Series {
	s := New(len(v.times))
	s.times = append(s.times, v.times...)
	s.vals = append(s.vals, v.vals...)
	return s
}

// Aggregate computes the statistic over the view's values in one pass,
// allocation-free for the streaming aggregations; percentiles sort into sc
// (nil sc allocates a throwaway buffer). Semantics match Agg.Apply: NaN for
// an empty view except AggCount and AggSum, which are 0.
func (v View) Aggregate(a Agg, sc *AggScratch) float64 {
	return a.ApplyWith(v.vals, sc)
}

// BucketHint is a capacity hint for bucketing v at period: the bucket
// count v's time span implies, capped by the point count (bucketing never
// grows a series). It sizes output columns, never decides contents.
func (v View) BucketHint(period time.Duration) int {
	n := len(v.times)
	if n > 1 {
		if span := v.times[n-1] - v.times[0]; span >= 0 {
			if b := int(span/int64(period)) + 1; b < n {
				return b
			}
		}
	}
	return n
}

// Resample buckets the view into consecutive windows of length period
// anchored at the first point's timestamp and aggregates each bucket,
// skipping empty buckets; the resulting point carries the bucket start
// time. It allocates only the output series.
func (v View) Resample(period time.Duration, agg Agg) *Series {
	return v.ResampleInto(New(0), period, agg, nil)
}

// ResampleInto is Resample writing into dst (which is Reset first and
// returned), with sc reused for percentile buckets — the allocation-free
// aggregation path for callers that hold both across queries. Each bucket
// is aggregated in place over its zero-copy sub-view, so the result is
// exactly Agg.ApplyWith over that bucket's values.
func (v View) ResampleInto(dst *Series, period time.Duration, agg Agg, sc *AggScratch) *Series {
	var anchor int64
	if len(v.times) > 0 {
		anchor = v.times[0]
	}
	it := v.buckets(anchor, period)
	dst.Reset()
	for {
		start, sub, ok := it.Next()
		if !ok {
			return dst
		}
		dst.times = append(dst.times, start)
		dst.vals = append(dst.vals, sub.Aggregate(agg, sc))
	}
}
