package timeseries

import "time"

// TimeColumn is a read-only column of unix-nano timestamps. It is either
// explicit — one stored int64 per point — or cadence-encoded as (t0, step)
// with point i at t0 + i·step, which stores nothing per point. A
// cadence-encoded column is non-decreasing and every t0 + i·step it
// encodes is a real, in-range timestamp; only an explicit column can hold
// whatever a caller appended.
//
// Per-point loops should take a view's column once (View.Times) and index
// it with At, which inlines to one predictable branch, rather than call
// View.NanoAt per point.
type TimeColumn struct {
	times    []int64 // explicit timestamps; nil when cadence-encoded
	t0, step int64
}

// At returns the i-th timestamp.
func (c TimeColumn) At(i int) int64 {
	if c.times != nil {
		return c.times[i]
	}
	return c.t0 + int64(i)*c.step
}

// slice returns the column of points [lo, hi).
func (c TimeColumn) slice(lo, hi int) TimeColumn {
	if c.times != nil {
		return TimeColumn{times: c.times[lo:hi]}
	}
	return TimeColumn{t0: c.At(lo), step: c.step}
}

// search returns the first index in [lo, hi) whose timestamp is >= tn, or
// hi: a binary search over an explicit column, one division over a
// cadence-encoded one.
func (c TimeColumn) search(lo, hi int, tn int64) int {
	if c.times != nil {
		return lo + searchNanos(c.times[lo:hi], tn)
	}
	first := c.At(lo)
	if tn <= first {
		return lo
	}
	if c.step == 0 {
		return hi
	}
	// tn > first, so the distance is exact as a uint64 even when it
	// exceeds the int64 range.
	k := (uint64(tn)-uint64(first)-1)/uint64(c.step) + 1
	if k >= uint64(hi-lo) {
		return hi
	}
	return lo + int(k)
}

// extend reports whether tn can be cadence-encoded as point n (n >= 1) of
// the column, fixing the step when tn is the second point. A timestamp
// before the last point, or one too far past it for an int64 step, cannot.
func (c *TimeColumn) extend(n int, tn int64) bool {
	last := c.t0 + int64(n-1)*c.step
	d := tn - last
	if tn < last || d < 0 {
		return false
	}
	if n == 1 {
		c.step = d
		return true
	}
	return d == c.step
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

// View is a zero-copy window over a Series' columns. It shares storage with
// the series it was taken from and is valid only until that series is next
// mutated (Append, DropBefore, Reset); the metric store therefore only
// exposes views under the owning entry's lock. A View is a value — slicing
// and passing it copies the columns' slice headers, cadence and offsets,
// never the data.
type View struct {
	tc TimeColumn
	vc ValueColumn
}

// Len reports the number of points in the view.
func (v View) Len() int { return v.vc.n }

// At returns the i-th point.
func (v View) At(i int) Point { return Point{T: nanoTime(v.tc.At(i)), V: v.vc.at(i)} }

// NanoAt returns the i-th timestamp in unix nanoseconds without
// reconstructing a time.Time.
func (v View) NanoAt(i int) int64 { return v.tc.At(i) }

// Times returns the view's time column, the accessor per-point loops
// hoist out of the loop.
func (v View) Times() TimeColumn { return v.tc }

// Values returns the view's value column, the accessor per-point loops
// hoist out of the loop and walk by span. It shares the view's storage
// and validity window; use CopyValues or Materialize for an owned copy.
func (v View) Values() ValueColumn { return v.vc }

// ValueAt returns the i-th value.
func (v View) ValueAt(i int) float64 { return v.vc.at(i) }

// Last returns the most recent point and true, or a zero point and false
// for an empty view.
func (v View) Last() (Point, bool) {
	n := v.vc.n
	if n == 0 {
		return Point{}, false
	}
	return Point{T: nanoTime(v.tc.At(n - 1)), V: v.vc.last()}, true
}

// CopyValues appends the view's values to dst and returns the extended
// slice, so a caller-held buffer is reused across windows.
func (v View) CopyValues(dst []float64) []float64 { return v.vc.appendTo(dst) }

// CopyColumns appends the view's timestamps and values to ts and vs and
// returns the extended slices, expanding a cadence-encoded time column and
// a run-encoded value column.
func (v View) CopyColumns(ts []int64, vs []float64) ([]int64, []float64) {
	if v.tc.times != nil {
		ts = append(ts, v.tc.times...)
	} else {
		for i := 0; i < v.vc.n; i++ {
			ts = append(ts, v.tc.At(i))
		}
	}
	return ts, v.vc.appendTo(vs)
}

// Slice narrows the view to points p with from <= p.T < to, still without
// copying.
func (v View) Slice(from, to time.Time) View {
	n := v.vc.n
	lo := v.tc.search(0, n, unixNano(from))
	hi := v.tc.search(0, n, unixNano(to))
	if hi < lo { // inverted window selects nothing
		hi = lo
	}
	return v.sub(lo, hi)
}

// sub returns the view of points [lo, hi).
func (v View) sub(lo, hi int) View {
	return View{tc: v.tc.slice(lo, hi), vc: v.vc.slice(lo, hi)}
}

// Materialize copies the view into an independent Series, keeping both
// columns in their encodings.
func (v View) Materialize() *Series {
	s := &Series{vc: v.vc.clone()}
	if v.tc.times != nil {
		s.tc.times = append(make([]int64, 0, v.vc.n), v.tc.times...)
	} else {
		s.tc = v.tc
	}
	return s
}

// Aggregate computes the statistic over the view's values in one pass,
// allocation-free for the streaming aggregations; percentiles sort into sc
// (nil sc allocates a throwaway buffer). Semantics match Agg.Apply over the
// view's values bit for bit: NaN for an empty view except AggCount and
// AggSum, which are 0.
func (v View) Aggregate(a Agg, sc *AggScratch) float64 {
	return v.vc.aggregate(a, sc)
}

// BucketHint is a capacity hint for bucketing v at period: the bucket
// count v's time span implies, capped by the point count (bucketing never
// grows a series). It sizes output columns, never decides contents.
func (v View) BucketHint(period time.Duration) int {
	n := v.vc.n
	if n > 1 {
		if span := v.tc.At(n-1) - v.tc.At(0); span >= 0 {
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
// is aggregated in place over its slice of the value column, so the result
// is exactly Agg.ApplyWith over that bucket's values. Bucket starts are on
// the period's cadence until an empty bucket is skipped.
func (v View) ResampleInto(dst *Series, period time.Duration, agg Agg, sc *AggScratch) *Series {
	var anchor int64
	if v.vc.n > 0 {
		anchor = v.tc.At(0)
	}
	it := v.buckets(anchor, period)
	dst.Reset()
	if vals, ok := v.vc.Explicit(); ok {
		for {
			start, lo, hi, ok := it.Next()
			if !ok {
				return dst
			}
			dst.push(start, agg.ApplyWith(vals[lo:hi], sc))
		}
	}
	for {
		start, val, ok := it.NextStat(agg, sc)
		if !ok {
			return dst
		}
		dst.push(start, val)
	}
}
