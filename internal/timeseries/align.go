package timeseries

import "time"

// Bucket walking. Every period bucketing in the package — Align for
// cross-series joins and Resample for single-series statistics — is one
// walker over contiguous index ranges; they differ only in where bucket 0
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
// non-empty bucket as an index range of the view (Next) or, over a
// run-encoded value column, as its statistic computed in place (NextStat).
// It shares the view's storage and validity window (use it only under the
// owning entry's lock, like the view itself) and allocates nothing.
type AlignIter struct {
	tc     TimeColumn
	vc     ValueColumn
	anchor int64 // unix nanos where bucket 0 starts
	per    int64
	i      int // index of the first point not yet yielded
	k      int // NextStat's cursor: the run holding point i
	// byCadence is set for a cadence-encoded column whose timestamps all
	// lie within int64 range of the anchor: each bucket's end index then
	// follows from the step instead of a division per point.
	byCadence bool
}

// Align returns an iterator over v's non-empty epoch-aligned buckets of
// length period. Points are assumed time-ordered (the store guarantees
// it), so each bucket is a contiguous index range.
func (v View) Align(period time.Duration) AlignIter {
	return v.buckets(0, period)
}

// buckets returns the walker over v's buckets of length period, bucket k
// covering [anchor+k*period, anchor+(k+1)*period).
func (v View) buckets(anchor int64, period time.Duration) AlignIter {
	if period <= 0 {
		panic("timeseries: bucket period must be positive")
	}
	it := AlignIter{tc: v.tc, vc: v.vc, anchor: anchor, per: int64(period)}
	if n := v.vc.n; n > 0 && v.tc.times == nil {
		it.byCadence = subExact(v.tc.At(0), anchor) && subExact(v.tc.At(n-1), anchor)
	}
	return it
}

// subExact reports whether a-b does not overflow int64.
func subExact(a, b int64) bool { return (a >= b) == (a-b >= 0) }

// Next returns the next non-empty bucket: its start time in unix
// nanoseconds and its points as the index range [lo, hi) of the walked
// view. ok is false when the view is exhausted.
func (it *AlignIter) Next() (start int64, lo, hi int, ok bool) {
	n, i := it.vc.n, it.i
	if i >= n {
		return 0, 0, 0, false
	}
	rel := it.tc.At(i) - it.anchor
	bucket := floorDivInt64(rel, it.per)
	j := i + 1
	if it.byCadence {
		// rel is exact, so the next bucket boundary is dist in (0, per]
		// past point i, and point i+k reaches it once k·step >= dist.
		j = n
		if step := uint64(it.tc.step); step > 0 {
			m := rel % it.per
			if m < 0 {
				m += it.per
			}
			dist := uint64(it.per - m)
			if k := (dist-1)/step + 1; k < uint64(n-i) {
				j = i + int(k)
			}
		}
	} else {
		for j < n && floorDivInt64(it.tc.At(j)-it.anchor, it.per) == bucket {
			j++
		}
	}
	it.i = j
	return it.anchor + bucket*it.per, i, j, true
}

// NextStat returns the next non-empty bucket's start time in unix
// nanoseconds and statistic a over its values, exactly Agg.ApplyWith over
// them; percentiles over several runs sort into sc. ok is false when the
// view is exhausted. It walks a run-encoded column only, aggregating each
// bucket over the runs it overlaps, found by moving a cursor forward; over
// an explicit column (see ValueColumn.Explicit) walk with Next and
// aggregate each bucket's slice with Agg.ApplyWith.
func (it *AlignIter) NextStat(a Agg, sc *AggScratch) (start int64, v float64, ok bool) {
	start, lo, hi, ok := it.Next()
	if !ok {
		return 0, 0, false
	}
	runs, first, end := it.vc.runs, it.vc.off+lo, it.vc.off+hi
	k := it.k
	for k+1 < len(runs) && runs[k+1].start <= first {
		k++
	}
	it.k = k
	e := k + 1
	for e < len(runs) && runs[e].start < end {
		e++
	}
	if e == k+1 {
		return start, runStat(runs[k].v, hi-lo, a), true
	}
	var bucket ValueColumn // built field by field: a composite literal is copied
	bucket.runs, bucket.off, bucket.n = runs[k:e], first, hi-lo
	return start, bucket.aggregateRuns(a, sc), true
}
