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
		p := newFuzzPair(t0, step)
		for i := 0; i < len(tape); i++ {
			op := tape[i] & 7
			var arg byte
			if op >= 4 && i+1 < len(tape) {
				i++
				arg = tape[i]
			}
			switch op {
			case 4:
				p.append(t, time.Unix(0, p.last+int64(int8(arg))*(step/7+1)), fuzzValue(i))
			case 5:
				p.dropBefore(t, int(arg))
			case 6:
				p.reset()
			case 7:
				for k := 0; k < int(arg&63) && len(p.m.ts) < maxFuzzPoints; k++ {
					p.append(t, p.next(), fuzzValue(i+k))
				}
			default:
				p.append(t, p.next(), fuzzValue(i))
			}
			checkSeries(t, p.s, &p.m, i, step)
		}
	})
}

// FuzzSeriesValues is FuzzSeriesCadence for the value column: values come
// from a small palette of awkward values (NaNs with distinct payloads,
// both zeros, infinities, subnormals), so runs form, and the model is a
// plain []float64. Runs extend, break, get dropped and compacted across
// their boundaries, and the column materialises wherever enough fresh
// values arrive; every read is rechecked after every op, aggregates bit
// for bit.
//
// Each op byte selects by its low three bits, its high five bits being a
// parameter p: 0–1 append palette value p on cadence; 2 appends p+1 fresh
// values; 3 repeats the last value p+1 times; 4 appends palette value p
// off cadence, jumping by the next byte; 5 drops before a bound picked by
// the next byte and p; 6 resets; 7 appends a time outside the
// int64-nanosecond range, picked by p and the next byte, which Append
// must reject. The committed corpus (testdata/fuzz/FuzzSeriesValues)
// seeds a constant series, NaN-payload and signed-zero runs, the switch to
// explicit values mid-stream, compaction across run boundaries, and
// out-of-range appends.
func FuzzSeriesValues(f *testing.F) {
	f.Fuzz(func(t *testing.T, t0, step int64, tape []byte) {
		if len(tape) > maxFuzzOps {
			tape = tape[:maxFuzzOps]
		}
		p := newFuzzPair(t0, step)
		fresh := 0.25
		for i := 0; i < len(tape); i++ {
			op, par := tape[i]&7, int(tape[i]>>3)
			var arg byte
			if op >= 4 && i+1 < len(tape) {
				i++
				arg = tape[i]
			}
			palette := awkwardValues[par%len(awkwardValues)]
			switch op {
			case 2:
				for k := 0; k <= par && len(p.m.ts) < maxFuzzPoints; k++ {
					p.append(t, p.next(), fresh)
					fresh++
				}
			case 3:
				v := palette
				if n := len(p.m.vs); n > 0 {
					v = p.m.vs[n-1]
				}
				for k := 0; k <= par && len(p.m.ts) < maxFuzzPoints; k++ {
					p.append(t, p.next(), v)
				}
			case 4:
				p.append(t, time.Unix(0, p.last+int64(int8(arg))*(step/7+1)), palette)
			case 5:
				p.dropBefore(t, int(arg)|par<<8)
			case 6:
				p.reset()
			case 7:
				out := []time.Time{
					time.Unix(0, math.MaxInt64).Add(time.Duration(1 + int(arg))),
					time.Unix(0, math.MinInt64).Add(-time.Duration(1 + int(arg))),
					time.Date(2262+int(arg), 4, 12, 0, 0, 0, 0, time.UTC),
					time.Date(1677-int(arg), 9, 21, 0, 0, 0, 0, time.UTC),
				}[par%4]
				p.append(t, out, palette)
			default:
				if len(p.m.ts) < maxFuzzPoints {
					p.append(t, p.next(), palette)
				}
			}
			checkSeries(t, p.s, &p.m, i, step)
		}
	})
}

// fuzzPair is a Series under test beside its model, and the cadence the
// next on-cadence append continues.
type fuzzPair struct {
	s        *Series
	m        explicitModel
	t0, step int64
	last     int64
	appended bool
}

func newFuzzPair(t0, step int64) *fuzzPair {
	return &fuzzPair{s: New(0), t0: t0, step: step, last: t0}
}

// append appends to both sides; a rejected append must leave both
// unchanged.
func (p *fuzzPair) append(t *testing.T, at time.Time, v float64) {
	t.Helper()
	err := p.s.Append(at, v)
	tn, want := p.m.accepts(at)
	if (err == nil) != want {
		t.Fatalf("append %v after %v: err %v, model accepts %v", at, p.m.ts, err, want)
	}
	if err == nil {
		p.m.ts, p.m.vs = append(p.m.ts, tn), append(p.m.vs, v)
		p.last, p.appended = tn, true
	}
}

// next is the time of the next on-cadence point.
func (p *fuzzPair) next() time.Time {
	if !p.appended {
		return time.Unix(0, p.t0)
	}
	return time.Unix(0, p.last+p.step)
}

func (p *fuzzPair) dropBefore(t *testing.T, k int) {
	t.Helper()
	cut := p.m.bound(k)
	want := p.m.dropBefore(unixNano(cut))
	if got := p.s.DropBefore(cut); got != want {
		t.Fatalf("DropBefore(%d) dropped %d, model %d", unixNano(cut), got, want)
	}
}

func (p *fuzzPair) reset() {
	p.s.Reset()
	p.m = explicitModel{}
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

// accepts reports whether the model takes a point at t, and its
// timestamp: t must survive the round trip through unix nanoseconds, and
// must not precede the last point.
func (m *explicitModel) accepts(t time.Time) (int64, bool) {
	tn := t.UnixNano()
	if !time.Unix(0, tn).Equal(t) {
		return 0, false
	}
	return tn, len(m.ts) == 0 || tn >= m.ts[len(m.ts)-1]
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
	for _, agg := range allAggs {
		if got, want := v.Aggregate(agg, &sc), agg.Apply(vs); !sameFloat(got, want) {
			t.Fatalf("%s: Aggregate(%v) = %v (%x), model %v (%x) over %v", tag, agg, got, math.Float64bits(got), want, math.Float64bits(want), vs)
		}
	}
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
		// NextStat: the same buckets' statistics over a run-encoded column.
		if _, explicit := v.Values().Explicit(); !explicit {
			for _, agg := range []Agg{AggSum, AggP90} {
				it := v.Align(time.Duration(period))
				lo := 0
				for k := range starts {
					start, got, ok := it.NextStat(agg, &sc)
					if want := agg.Apply(vs[lo:ends[k]]); !ok || start != starts[k] || !sameFloat(got, want) {
						t.Fatalf("%s: Align(%d).NextStat(%v) bucket %d = %d %v ok=%v, model %d %v", tag, period, agg, k, start, got, ok, starts[k], want)
					}
					lo = ends[k]
				}
				if _, _, ok := it.NextStat(agg, &sc); ok {
					t.Fatalf("%s: Align(%d).NextStat yields more than the model's %d buckets", tag, period, len(starts))
				}
			}
		}

		// ResampleInto: buckets anchored at the first point.
		var anchor int64
		if len(ts) > 0 {
			anchor = ts[0]
		}
		for _, agg := range allAggs {
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
