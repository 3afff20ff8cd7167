package timeseries

import (
	"math"
	"slices"
)

// ValueColumn is a read-only column of float64 values. It is either
// explicit — one stored float64 per point — or run-length encoded as runs
// of (value, start), a run holding its value for every point up to the
// next run's start, which stores nothing per point while a series repeats
// its last value. Runs compare values bit for bit, so NaN payloads and the
// sign of zero survive encoding.
//
// Per-point loops should take a view's column once (View.Values), test
// its encoding once (Explicit) and then range over the explicit values or
// walk the runs with Spans, rather than call View.ValueAt per point, which
// searches the runs.
type ValueColumn struct {
	vals []float64 // explicit values; nil when run-encoded
	runs []run     // the runs covering points [0, n) when run-encoded
	off  int       // the run numbering of point 0
	n    int       // number of points
}

// run is a stretch of equal values: v at every point from start, in the
// column's run numbering, up to the next run's start.
type run struct {
	v     float64
	start int
}

// A run costs runBytes and an explicit value valueBytes, so runs pay while
// a column holds fewer runs than half its points. A run-encoded column
// switches to explicit values once its runs cost more than those values
// would by runSlack, so a series does not flip on its first few points,
// and a column never holds more than runSlack bytes of runs beyond its
// explicit size. The slack is four times the largest excess a repeating
// series of a default flow reaches (ItemCount's 4 runs in 4 points, over
// 90 flows of three peaks), yet a series that changes on every point
// switches at its 17th, so young flows pay little for the runs they drop.
const (
	runBytes   = 16
	valueBytes = 8
	runSlack   = 128
)

// at returns the i-th value: an index on an explicit column, a binary
// search over the runs of an encoded one.
func (c *ValueColumn) at(i int) float64 {
	if c.vals != nil {
		return c.vals[i]
	}
	return c.runs[c.runAt(i)].v
}

// runAt returns the index of the run holding point i.
func (c *ValueColumn) runAt(i int) int {
	return searchRuns(c.runs, c.off+i) - 1
}

// searchRuns returns the number of leading runs that start at or before
// run position p.
func searchRuns(runs []run, p int) int {
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if runs[mid].start <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// runLen returns how many of the column's points run k holds.
func (c *ValueColumn) runLen(k int) int {
	lo, hi := c.runs[k].start-c.off, c.n
	if lo < 0 {
		lo = 0
	}
	if k+1 < len(c.runs) {
		hi = c.runs[k+1].start - c.off
	}
	return hi - lo
}

// last returns the newest value of a non-empty column.
func (c *ValueColumn) last() float64 {
	if c.vals != nil {
		return c.vals[c.n-1]
	}
	return c.runs[len(c.runs)-1].v
}

// slice returns the column of points [lo, hi), still without copying.
func (c *ValueColumn) slice(lo, hi int) ValueColumn {
	if c.vals != nil {
		return ValueColumn{vals: c.vals[lo:hi], n: hi - lo}
	}
	if lo >= hi {
		return ValueColumn{}
	}
	k0 := c.runAt(lo)
	k1 := k0 + searchRuns(c.runs[k0:], c.off+hi-1)
	return ValueColumn{runs: c.runs[k0:k1], off: c.off + lo, n: hi - lo}
}

// Explicit returns the column's values and true when it stores them
// explicitly, so a loop over many ranges of the column can test the
// encoding once; it returns false for a run-encoded column.
func (c ValueColumn) Explicit() ([]float64, bool) { return c.vals, c.vals != nil }

// Span is one run of a run-encoded ValueColumn: its points [Lo, Hi), each
// holding V.
type Span struct {
	Lo, Hi int
	V      float64
}

// SpanIter walks a column's runs in order; see ValueColumn.Spans.
type SpanIter struct {
	c ValueColumn
	k int // spans yielded so far
}

// Spans returns an iterator over a run-encoded column's runs. An explicit
// column has none: range over Explicit's values instead.
func (c ValueColumn) Spans() SpanIter { return SpanIter{c: c} }

// Next returns the next span; ok is false when the column is exhausted.
func (it *SpanIter) Next() (sp Span, ok bool) {
	c, k := &it.c, it.k
	if k >= len(c.runs) {
		return Span{}, false
	}
	it.k++
	lo := c.runs[k].start - c.off
	if lo < 0 {
		lo = 0
	}
	return Span{Lo: lo, Hi: lo + c.runLen(k), V: c.runs[k].v}, true
}

// appendTo appends the column's values to dst, expanding runs.
func (c *ValueColumn) appendTo(dst []float64) []float64 {
	if c.vals != nil {
		return append(dst, c.vals...)
	}
	dst = slices.Grow(dst, c.n)
	for k := range c.runs {
		v := c.runs[k].v
		for j := c.runLen(k); j > 0; j-- {
			dst = append(dst, v)
		}
	}
	return dst
}

// clone returns an independent copy of the column in the same encoding.
func (c *ValueColumn) clone() ValueColumn {
	if c.vals != nil {
		return ValueColumn{vals: append(make([]float64, 0, c.n), c.vals...), n: c.n}
	}
	return ValueColumn{runs: slices.Clone(c.runs), off: c.off, n: c.n}
}

// push appends v: one more point on the last run when v repeats its value
// bit for bit, otherwise a new run, switching the column to explicit
// values once runs stop paying.
func (c *ValueColumn) push(v float64) {
	if c.vals != nil {
		c.vals = append(c.vals, v)
		c.n++
		return
	}
	if k := len(c.runs) - 1; k < 0 || math.Float64bits(c.runs[k].v) != math.Float64bits(v) {
		c.runs = append(c.runs, run{v: v, start: c.off + c.n})
		if runBytes*len(c.runs) > valueBytes*(c.n+1)+runSlack {
			c.n++
			c.materialize()
			return
		}
	}
	c.n++
}

// materialize switches the column to explicit values, once.
func (c *ValueColumn) materialize() {
	vals := c.appendTo(make([]float64, 0, c.n))
	*c = ValueColumn{vals: vals, n: c.n}
}

// truncate empties the column in place, keeping its encoding and capacity.
func (c *ValueColumn) truncate() {
	if c.vals != nil {
		c.vals = c.vals[:0]
	}
	c.runs, c.off, c.n = c.runs[:0], 0, 0
}

// dropFront discards points [0, h), moving the survivors (or the runs that
// hold them) to the front of the column's storage.
func (c *ValueColumn) dropFront(h int) {
	if c.vals != nil {
		c.vals = c.vals[:copy(c.vals, c.vals[h:])]
	} else {
		c.runs = c.runs[:copy(c.runs, c.runs[c.runAt(h):])]
		c.off += h
	}
	c.n -= h
}

// aggregate computes the statistic over the column, bit for bit what
// Agg.ApplyWith computes over its expanded values.
func (c *ValueColumn) aggregate(a Agg, sc *AggScratch) float64 {
	if c.vals != nil {
		return a.ApplyWith(c.vals, sc)
	}
	return c.aggregateRuns(a, sc)
}

// aggregateRuns is aggregate over a run-encoded column. Count, Min and Max
// are closed-form over the runs; Sum and Mean add each run's value once per
// point in the same left-to-right order (v·n is not that sum). A single
// run's percentile interpolates its two ranks with the explicit path's
// expression (v is not always what it gives when both ranks hold v); over
// several runs a percentile, like a sum meeting two different NaNs (whose
// payload the generated code picks), expands the column into the scratch
// buffer and aggregates it with ApplyWith itself.
func (c *ValueColumn) aggregateRuns(a Agg, sc *AggScratch) float64 {
	if len(c.runs) == 1 {
		return runStat(c.runs[0].v, c.n, a)
	}
	switch a {
	case AggCount:
		return float64(c.n)
	case AggSum:
		if t, ok := c.sum(); ok {
			return t
		}
		return c.expanded(a, sc)
	}
	if c.n == 0 {
		return math.NaN()
	}
	switch a {
	case AggMean:
		if t, ok := c.sum(); ok {
			return t / float64(c.n)
		}
		return c.expanded(a, sc)
	case AggMin:
		m := c.runs[0].v
		for _, r := range c.runs[1:] {
			if r.v < m {
				m = r.v
			}
		}
		return m
	case AggMax:
		m := c.runs[0].v
		for _, r := range c.runs[1:] {
			if r.v > m {
				m = r.v
			}
		}
		return m
	}
	return c.expanded(a, sc)
}

// expanded is ApplyWith over the column's values, expanded into the
// scratch buffer; a percentile then sorts them in place.
func (c *ValueColumn) expanded(a Agg, sc *AggScratch) float64 {
	return a.ApplyWith(c.appendTo(sc.sortBuf(c.n)[:0]), sc)
}

// runStat is statistic a over n copies of v, as aggregateRuns computes it
// over a single run.
func runStat(v float64, n int, a Agg) float64 {
	switch a {
	case AggCount:
		return float64(n)
	case AggSum:
		return addRun(0, v, n)
	}
	if n == 0 {
		return math.NaN()
	}
	switch a {
	case AggMean:
		return addRun(0, v, n) / float64(n)
	case AggMin, AggMax:
		return v
	}
	if p, ok := a.Percentile(); ok {
		_, _, frac := percentileRank(n, p)
		return interpolate(v, v, frac)
	}
	return math.NaN()
}

// sum adds the column's values left to right, as Sum does, and a NaN
// total stays NaN. ok is false when the sum would add one NaN to a
// different one: which payload that keeps is left to the generated code.
func (c *ValueColumn) sum() (t float64, ok bool) {
	for k := range c.runs {
		v := c.runs[k].v
		if t != t {
			if v != v && math.Float64bits(v) != math.Float64bits(t) {
				return 0, false
			}
			continue
		}
		t = addRun(t, v, c.runLen(k))
	}
	return t, true
}

// addRun adds v to t n times, left to right, as Sum adds n copies of v.
func addRun(t, v float64, n int) float64 {
	for ; n > 0; n-- {
		t += v
	}
	return t
}

// percentileRank returns the two ranks the p-th percentile of n sorted
// values interpolates between (linear interpolation between closest
// ranks) and the weight of the upper one.
func percentileRank(n int, p float64) (lo, hi int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// interpolate blends the values at the two ranks; at equal ranks frac is
// 0 and the lower value is returned as is.
func interpolate(lo, hi, frac float64) float64 {
	if frac == 0 {
		return lo
	}
	return lo*(1-frac) + hi*frac
}
