package timeseries

import (
	"math"
	"testing"
	"time"
)

// FuzzSeriesCadence drives a Series through random Append, DropBefore and
// Reset sequences and checks every read, after every operation, against
// explicitModel — plain timestamp and value slices with the pre-cadence
// semantics spelled out point by point. A series appended on one step
// keeps its time column cadence-encoded, and the first off-cadence append
// materialises it, so the reads are checked on both representations and
// across the switch.
//
// The input is a first timestamp, a step and an op tape. Each op byte
// selects by its low three bits: 0–3 append one step past the last
// appended point; 4 appends off cadence (the next byte scales a jump that
// may be negative, which Append rejects unless every point was dropped);
// 5 drops before a bound picked by the next byte; 6 resets; 7 appends a
// run of up to 63 on-cadence points. Every read is rechecked after every
// op, so the tape is capped at maxFuzzOps ops and the runs stop growing
// the series at maxFuzzPoints. The committed corpus
// (testdata/fuzz/FuzzSeriesCadence) seeds step 0, pre-1970 timestamps,
// steps near the int64 range under the clamped open bounds, dropping every
// point and then appending earlier, and compaction.
func FuzzSeriesCadence(f *testing.F) {
	f.Fuzz(func(t *testing.T, t0, step int64, tape []byte) {
		if len(tape) > maxFuzzOps {
			tape = tape[:maxFuzzOps]
		}
		s := New(0)
		var m explicitModel
		last, appended := t0, false
		// appendBoth appends to both sides; a rejected append must leave
		// both unchanged.
		appendBoth := func(tn int64, v float64) {
			err := s.Append(time.Unix(0, tn), v)
			if want := m.accepts(tn); (err == nil) != want {
				t.Fatalf("append %d after %v: err %v, model accepts %v", tn, m.ts, err, want)
			}
			if err == nil {
				m.ts, m.vs = append(m.ts, tn), append(m.vs, v)
				last, appended = tn, true
			}
		}
		next := func() int64 {
			if !appended {
				return t0
			}
			return last + step
		}
		for i := 0; i < len(tape); i++ {
			op := tape[i] & 7
			var arg byte
			if op >= 4 && i+1 < len(tape) {
				i++
				arg = tape[i]
			}
			switch op {
			case 4:
				appendBoth(last+int64(int8(arg))*(step/7+1), fuzzValue(i))
			case 5:
				cut := m.bound(int(arg))
				want := m.dropBefore(unixNano(cut))
				if got := s.DropBefore(cut); got != want {
					t.Fatalf("DropBefore(%d) dropped %d, model %d", unixNano(cut), got, want)
				}
			case 6:
				s.Reset()
				m = explicitModel{}
			case 7:
				for k := 0; k < int(arg&63) && len(m.ts) < maxFuzzPoints; k++ {
					appendBoth(next(), fuzzValue(i+k))
				}
			default:
				appendBoth(next(), fuzzValue(i))
			}
			checkSeries(t, s, &m, i, step)
		}
	})
}

// Bounds on one fuzz input's work (see FuzzSeriesCadence).
const (
	maxFuzzOps    = 96
	maxFuzzPoints = 256
)

// fuzzValue is a deterministic value for op i: varied, signed, and NaN
// every eleventh point so aggregations see NaN too.
func fuzzValue(i int) float64 {
	if i%11 == 10 {
		return math.NaN()
	}
	return float64((i*37)%19) - 9
}

// explicitModel is the reference series: one stored timestamp per point,
// searched linearly.
type explicitModel struct {
	ts []int64
	vs []float64
}

func (m *explicitModel) accepts(tn int64) bool {
	return len(m.ts) == 0 || tn >= m.ts[len(m.ts)-1]
}

// search returns the first index whose timestamp is >= tn.
func (m *explicitModel) search(tn int64) int {
	for i, t := range m.ts {
		if t >= tn {
			return i
		}
	}
	return len(m.ts)
}

func (m *explicitModel) dropBefore(tn int64) int {
	k := m.search(tn)
	m.ts, m.vs = m.ts[k:], m.vs[k:]
	return k
}

// window returns the model's [from, to) index range, empty when inverted.
func (m *explicitModel) window(from, to int64) (lo, hi int) {
	lo, hi = m.search(from), m.search(to)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// bound picks a window bound: the zero Time and a far future (which
// unixNano clamps to the int64 extremes), or a point's timestamp or its
// neighbour on either side.
func (m *explicitModel) bound(k int) time.Time {
	n := 2 + 3*len(m.ts)
	switch k %= n; k {
	case 0:
		return time.Time{}
	case 1:
		return time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	k -= 2
	return time.Unix(0, m.ts[k/3]+int64(k%3)-1)
}

// modelBuckets is the explicit bucket walk: each point's bucket by floor
// division of its offset from anchor (int64 wrap-around included), runs of
// equal buckets forming one bucket starting at anchor + bucket·period.
func modelBuckets(ts []int64, anchor, period int64) (starts []int64, ends []int) {
	for i := range ts {
		b := floorDivInt64(ts[i]-anchor, period)
		if i > 0 && b == floorDivInt64(ts[i-1]-anchor, period) {
			ends[len(ends)-1] = i + 1
			continue
		}
		starts, ends = append(starts, anchor+b*period), append(ends, i+1)
	}
	return starts, ends
}

// checkSeries compares every read of s against the model.
func checkSeries(t *testing.T, s *Series, m *explicitModel, op int, step int64) {
	t.Helper()
	n := len(m.ts)
	if s.Len() != n {
		t.Fatalf("op %d: Len %d, model %d", op, s.Len(), n)
	}
	for i := 0; i < n; i++ {
		if p := s.At(i); p.T.UnixNano() != m.ts[i] || !sameFloat(p.V, m.vs[i]) {
			t.Fatalf("op %d: At(%d) = %d/%v, model %d/%v", op, i, p.T.UnixNano(), p.V, m.ts[i], m.vs[i])
		}
	}
	if p, ok := s.Last(); ok != (n > 0) || ok && (p.T.UnixNano() != m.ts[n-1] || !sameFloat(p.V, m.vs[n-1])) {
		t.Fatalf("op %d: Last = %v/%v ok=%v, model %v", op, p.T.UnixNano(), p.V, ok, m.ts)
	}
	checkView(t, "ViewAll", s.ViewAll(), m.ts, m.vs, step)
	for k := 0; k < 3; k++ {
		fromB, toB := m.bound(op+7*k), m.bound(op*3+k+1)
		lo, hi := m.window(unixNano(fromB), unixNano(toB))
		v := s.View(fromB, toB)
		checkView(t, "View", v, m.ts[lo:hi], m.vs[lo:hi], step)
		sub := explicitModel{ts: m.ts[lo:hi], vs: m.vs[lo:hi]}
		from2, to2 := m.bound(op+k+2), m.bound(op*5+k)
		lo2, hi2 := sub.window(unixNano(from2), unixNano(to2))
		checkView(t, "Slice", v.Slice(from2, to2), sub.ts[lo2:hi2], sub.vs[lo2:hi2], step)
	}
	for k := 0; k <= n && k <= 3; k++ {
		gt, gv := s.TailN(k).ViewAll().CopyColumns(nil, nil)
		if !equalColumns(gt, gv, m.ts[n-k:], m.vs[n-k:]) {
			t.Fatalf("op %d: TailN(%d) differs from model", op, k)
		}
	}
}

// checkView compares v, its Materialize copy, and their bucketings with
// the model columns ts/vs.
func checkView(t *testing.T, tag string, v View, ts []int64, vs []float64, step int64) {
	t.Helper()
	if v.Len() != len(ts) {
		t.Fatalf("%s: Len %d, model %d", tag, v.Len(), len(ts))
	}
	times := v.Times()
	for i := range ts {
		if v.NanoAt(i) != ts[i] || times.At(i) != ts[i] || v.At(i).T.UnixNano() != ts[i] || !sameFloat(v.ValueAt(i), vs[i]) {
			t.Fatalf("%s: point %d = %d/%v, model %d/%v", tag, i, v.NanoAt(i), v.ValueAt(i), ts[i], vs[i])
		}
	}
	if gt, gv := v.CopyColumns(nil, nil); !equalColumns(gt, gv, ts, vs) {
		t.Fatalf("%s: CopyColumns %v, model %v", tag, gt, ts)
	}
	mat := v.Materialize()
	if gt, gv := mat.ViewAll().CopyColumns(nil, nil); !equalColumns(gt, gv, ts, vs) {
		t.Fatalf("%s: Materialize %v, model %v", tag, gt, ts)
	}
	// The copy keeps appending like a series built point by point.
	if n := len(ts); n > 0 {
		tn := ts[n-1] + step
		if err := mat.Append(time.Unix(0, tn), 1); (err == nil) != (tn >= ts[n-1]) {
			t.Fatalf("%s: Materialize copy append %d: %v", tag, tn, err)
		} else if err == nil {
			gt, _ := mat.ViewAll().CopyColumns(nil, nil)
			if !equalColumns(gt[:n], vs, ts, vs) || gt[n] != tn {
				t.Fatalf("%s: Materialize copy after append %v, model %v + %d", tag, gt, ts, tn)
			}
		}
	}

	var sc AggScratch
	dst := New(0)
	for _, period := range bucketPeriods(ts, step) {
		// BucketHint.
		hint := len(ts)
		if n := len(ts); n > 1 {
			if span := ts[n-1] - ts[0]; span >= 0 {
				if b := int(span/period) + 1; b < n {
					hint = b
				}
			}
		}
		if got := v.BucketHint(time.Duration(period)); got != hint {
			t.Fatalf("%s: BucketHint(%d) = %d, model %d", tag, period, got, hint)
		}

		// Align: epoch-anchored buckets as zero-copy sub-views.
		starts, ends := modelBuckets(ts, 0, period)
		it := v.Align(time.Duration(period))
		lo := 0
		for k := range starts {
			start, blo, bhi, ok := it.Next()
			if !ok || start != starts[k] || blo != lo || bhi != ends[k] {
				t.Fatalf("%s: Align(%d) bucket %d = %d [%d,%d) ok=%v, model %d [%d,%d)", tag, period, k, start, blo, bhi, ok, starts[k], lo, ends[k])
			}
			lo = ends[k]
		}
		if _, _, _, ok := it.Next(); ok {
			t.Fatalf("%s: Align(%d) yields more than the model's %d buckets", tag, period, len(starts))
		}

		// ResampleInto: buckets anchored at the first point.
		var anchor int64
		if len(ts) > 0 {
			anchor = ts[0]
		}
		for _, agg := range []Agg{AggMean, AggMin, AggCount, AggP90} {
			starts, ends := modelBuckets(ts, anchor, period)
			wv := make([]float64, len(starts))
			lo := 0
			for k := range starts {
				wv[k] = agg.Apply(vs[lo:ends[k]])
				lo = ends[k]
			}
			gt, gv := v.ResampleInto(dst, time.Duration(period), agg, &sc).ViewAll().CopyColumns(nil, nil)
			if !equalColumns(gt, gv, starts, wv) {
				t.Fatalf("%s: ResampleInto(%d, %v) = %v %v, model %v %v", tag, period, agg, gt, gv, starts, wv)
			}
		}
	}
}

// bucketPeriods picks bucket lengths that split a run of points several
// ways: a nanosecond, fractions and multiples of the step, and the
// widest period.
func bucketPeriods(ts []int64, step int64) []int64 {
	cands := []int64{1, math.MaxInt64, step, step/3 + 1, 2*step + 1}
	if n := len(ts); n > 1 {
		cands = append(cands, (ts[n-1]-ts[0])/2+1)
	}
	out := cands[:0]
	for _, p := range cands {
		if p > 0 { // overflowed candidates drop out
			out = append(out, p)
		}
	}
	return out
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
