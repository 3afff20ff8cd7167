package timeseries

import "time"

// Bucket walking. Every period bucketing in the package — Align for
// cross-series joins and Resample for single-series statistics — is one
// walker over contiguous sub-views; they differ only in where bucket 0
// starts. Resample anchors buckets at a view's first point (CloudWatch's
// period statistics), which is right for one series but useless for
// joining two: each side's anchor differs, so "the 10:00:00–10:00:10
// bucket" is not the same interval on both sides. Align anchors buckets at
// the unix epoch instead — bucket k covers [k*period, (k+1)*period) — so
// any two series bucketed at the same period agree on bucket boundaries
// and can be merge-joined on bucket start times. The query engine's
// resample operator and join operator are built on it.

// floorDivInt64 is floor(a/b) for b > 0 — ordinary Go division truncates
// toward zero, which would shift pre-1970 timestamps into the wrong
// bucket.
func floorDivInt64(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// BucketStart returns the epoch-aligned start (unix nanoseconds) of the
// period bucket containing the unix-nano timestamp tn.
func BucketStart(tn int64, period time.Duration) int64 {
	if period <= 0 {
		panic("timeseries: align period must be positive")
	}
	return floorDivInt64(tn, int64(period)) * int64(period)
}

// AlignIter walks a view's period buckets in time order, yielding each
// non-empty bucket as a zero-copy sub-view. It shares the view's storage
// and validity window (use it only under the owning entry's lock, like the
// view itself) and allocates nothing.
type AlignIter struct {
	v      View
	anchor int64 // unix nanos where bucket 0 starts
	per    int64
	i      int // index of the first point not yet yielded
}

// Align returns an iterator over v's non-empty epoch-aligned buckets of
// length period. Points are assumed time-ordered (the store guarantees
// it), so each bucket is a contiguous sub-view.
func (v View) Align(period time.Duration) AlignIter {
	return v.buckets(0, period)
}

// buckets returns the walker over v's buckets of length period, bucket k
// covering [anchor+k*period, anchor+(k+1)*period).
func (v View) buckets(anchor int64, period time.Duration) AlignIter {
	if period <= 0 {
		panic("timeseries: bucket period must be positive")
	}
	return AlignIter{v: v, anchor: anchor, per: int64(period)}
}

// Next returns the next non-empty bucket: its start time in unix
// nanoseconds and the zero-copy sub-view of its points. ok is false when
// the view is exhausted.
func (it *AlignIter) Next() (start int64, sub View, ok bool) {
	n := it.v.Len()
	if it.i >= n {
		return 0, View{}, false
	}
	bucket := floorDivInt64(it.v.times[it.i]-it.anchor, it.per)
	j := it.i + 1
	for j < n && floorDivInt64(it.v.times[j]-it.anchor, it.per) == bucket {
		j++
	}
	sub = View{times: it.v.times[it.i:j], vals: it.v.vals[it.i:j]}
	it.i = j
	return it.anchor + bucket*it.per, sub, true
}
