package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

var allAggs = []Agg{AggMean, AggSum, AggMin, AggMax, AggCount, AggP50, AggP90, AggP99}

// awkwardValues are the values whose aggregates a closed form gets wrong:
// NaNs with distinct payloads, both zeros, both infinities, subnormals,
// and decimals whose repeated sum is not their product.
var awkwardValues = []float64{
	math.Float64frombits(0x7ff8000000000001), // NaN, payload 1
	math.Float64frombits(0x7ff8000000000002), // NaN, payload 2
	math.Float64frombits(0xfff8000000000003), // NaN, sign set
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-310,
	0.1, 0.7, -0.3, 1e16, 1, 3,
}

// piecewiseSeries appends n points on a 10 s cadence whose values repeat
// in runs of 1–maxRun drawn from palette, and reports the values.
func piecewiseSeries(rng *rand.Rand, n, maxRun int, palette []float64) (*Series, []float64) {
	s := New(0)
	vs := make([]float64, 0, n)
	for len(vs) < n {
		v := palette[rng.Intn(len(palette))]
		for k := 1 + rng.Intn(maxRun); k > 0 && len(vs) < n; k-- {
			vs = append(vs, v)
		}
	}
	for i, v := range vs {
		s.MustAppend(columnarEpoch.Add(time.Duration(i)*10*time.Second), v)
	}
	return s, vs
}

// TestRunAggregatesBitIdentical is the guard against closed forms: over
// random piecewise-constant columns of awkward values, every aggregate of
// every window [lo, hi) of a run-encoded series, and every bucket
// ResampleInto makes of it, equals Agg.ApplyWith over the expanded values
// bit for bit. Summing a run as v·n, or answering a percentile inside a
// run with v, fails it.
func TestRunAggregatesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	var sc AggScratch
	dst := New(0)
	for trial := 0; trial < 300; trial++ {
		palette := make([]float64, 1+rng.Intn(5))
		for i := range palette {
			palette[i] = awkwardValues[rng.Intn(len(awkwardValues))]
		}
		s, vs := piecewiseSeries(rng, 1+rng.Intn(24), 8, palette)
		if s.vc.vals != nil {
			t.Fatalf("trial %d: %d points in runs materialised", trial, len(vs))
		}
		all := s.ViewAll()
		for lo := 0; lo <= len(vs); lo++ {
			for hi := lo; hi <= len(vs); hi++ {
				v := all.sub(lo, hi)
				for _, a := range allAggs {
					want := a.ApplyWith(vs[lo:hi], nil)
					if got := v.Aggregate(a, &sc); !sameFloat(got, want) {
						t.Fatalf("trial %d [%d,%d) %v: %v (%x), expanded %v (%x), values %v",
							trial, lo, hi, a, got, math.Float64bits(got), want, math.Float64bits(want), vs[lo:hi])
					}
				}
			}
		}
		ts, _ := all.CopyColumns(nil, nil)
		for _, period := range []int64{int64(10 * time.Second), int64(25 * time.Second), int64(time.Minute), int64(time.Hour)} {
			starts, ends := modelBuckets(ts, ts[0], period)
			for _, a := range allAggs {
				got := all.ResampleInto(dst, time.Duration(period), a, &sc)
				if got.Len() != len(starts) {
					t.Fatalf("trial %d %v/%v: %d buckets, want %d", trial, period, a, got.Len(), len(starts))
				}
				lo := 0
				for k := range starts {
					want := a.ApplyWith(vs[lo:ends[k]], nil)
					if p := got.At(k); p.T.UnixNano() != starts[k] || !sameFloat(p.V, want) {
						t.Fatalf("trial %d %v/%v bucket %d: %v, expanded %v over %v", trial, period, a, k, p.V, want, vs[lo:ends[k]])
					}
					lo = ends[k]
				}
			}
		}
	}
}

// TestConstantSeriesHoldsOneRun: six hours of a metric that never changes
// (2,160 points at the 10 s simulation step) cost one run, and keep
// costing one run under retention.
func TestConstantSeriesHoldsOneRun(t *testing.T) {
	s := New(0)
	for i := 0; i < 2160; i++ {
		s.MustAppend(columnarEpoch.Add(time.Duration(i)*10*time.Second), 100)
	}
	if s.vc.vals != nil || len(s.vc.runs) != 1 || s.Len() != 2160 {
		t.Fatalf("constant series holds %d runs (explicit %v) for %d points, want 1 run", len(s.vc.runs), s.vc.vals != nil, s.Len())
	}
	for i := 2160; i < 5000; i++ {
		now := columnarEpoch.Add(time.Duration(i) * 10 * time.Second)
		s.MustAppend(now, 100)
		s.DropBefore(now.Add(-time.Hour))
	}
	if len(s.vc.runs) != 1 || cap(s.vc.runs) != 1 || s.Len() != 361 {
		t.Fatalf("under retention: %d runs (cap %d) for %d points, want 1 run for 361", len(s.vc.runs), cap(s.vc.runs), s.Len())
	}
}

// TestValueColumnSwitchesOnce: a column run-encodes while runs pay, and
// switches to explicit values once, when its runs cost runSlack bytes
// more than explicit values would; it never switches back.
func TestValueColumnSwitchesOnce(t *testing.T) {
	s := New(0)
	at := func(i int) time.Time { return columnarEpoch.Add(time.Duration(i) * time.Second) }
	// A series that changes on every point switches on its 17th:
	// 17 runs cost 272 B, 136 B more than 17 values.
	for i := 0; i < 16; i++ {
		s.MustAppend(at(i), float64(i))
	}
	if s.vc.vals != nil {
		t.Fatal("16 changing points materialised, want runs")
	}
	s.MustAppend(at(16), 16)
	if s.vc.vals == nil || s.vc.runs != nil || s.vc.n != 17 {
		t.Fatalf("17th changing point: explicit %v, %d runs, n %d; want explicit", s.vc.vals != nil, len(s.vc.runs), s.vc.n)
	}
	// Repeats no longer run-encode, even after a Reset.
	s.Reset()
	for i := 0; i < 100; i++ {
		s.MustAppend(at(i), 7)
	}
	if s.vc.vals == nil || len(s.vc.vals) != 100 {
		t.Fatal("an explicit column went back to runs")
	}

	// Piecewise constant: short runs early, then a plateau, never pays
	// more than the slack and stays encoded.
	s = New(0)
	for i := 0; i < 2160; i++ {
		v := float64(i / 30)
		if i < 6 {
			v = float64(i)
		}
		s.MustAppend(at(i), v)
	}
	if s.vc.vals != nil || len(s.vc.runs) != 78 {
		t.Fatalf("piecewise series: explicit %v, %d runs; want 78 runs", s.vc.vals != nil, len(s.vc.runs))
	}
}

// TestAppendRejectsOutOfRangeTimes: a time outside the int64-nanosecond
// range is an error, where storing t.UnixNano() would wrap it to another
// century, and it leaves the series unchanged; the range's own ends are
// accepted.
func TestAppendRejectsOutOfRangeTimes(t *testing.T) {
	first, last := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	for _, tc := range []struct {
		at time.Time
		ok bool
	}{
		{time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{last.Add(time.Nanosecond), false},
		{first.Add(-time.Nanosecond), false},
		{last, true},
		{first, true},
		{time.Date(2262, 4, 11, 0, 0, 0, 0, time.UTC), true},
		{time.Date(1677, 9, 22, 0, 0, 0, 0, time.UTC), true},
	} {
		s := New(0)
		err := s.Append(tc.at, 1)
		if (err == nil) != tc.ok {
			t.Fatalf("Append(%v): err %v, want ok=%v", tc.at, err, tc.ok)
		}
		if !tc.ok {
			if s.Len() != 0 {
				t.Fatalf("rejected Append(%v) stored a point", tc.at)
			}
			continue
		}
		if p, _ := s.Last(); !p.T.Equal(tc.at) {
			t.Fatalf("Append(%v) stored %v", tc.at, p.T)
		}
		// A later append beyond the range is rejected too.
		if err := s.Append(tc.at.AddDate(700, 0, 0), 2); err == nil {
			t.Fatalf("Append 700 years after %v succeeded", tc.at)
		}
		if s.Len() != 1 {
			t.Fatalf("rejected append changed the series to %d points", s.Len())
		}
	}
	// Window bounds outside the range still clamp rather than fail.
	s := New(0)
	s.MustAppend(columnarEpoch, 1)
	if got := s.View(time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)).Len(); got != 1 {
		t.Fatalf("View over out-of-range bounds holds %d points, want 1", got)
	}
}
