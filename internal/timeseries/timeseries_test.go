package timeseries

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestAppendOrdering(t *testing.T) {
	s := New(0)
	if err := s.Append(t0, 1); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := s.Append(t0.Add(time.Second), 2); err != nil {
		t.Fatalf("ordered append: %v", err)
	}
	if err := s.Append(t0, 3); err == nil {
		t.Fatal("out-of-order append did not error")
	}
	// Equal timestamps are allowed (multiple observations in one tick).
	if err := s.Append(t0.Add(time.Second), 4); err != nil {
		t.Fatalf("equal-timestamp append: %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestLastAndValues(t *testing.T) {
	s := FromValues(t0, time.Second, []float64{1, 2, 3})
	p, ok := s.Last()
	if !ok || p.V != 3 {
		t.Fatalf("Last = %+v ok=%v, want V=3", p, ok)
	}
	vs := s.Values()
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("Values = %v", vs)
	}
	if _, ok := New(0).Last(); ok {
		t.Fatal("Last on empty series reported ok")
	}
}

func TestBetween(t *testing.T) {
	s := FromValues(t0, time.Minute, []float64{0, 1, 2, 3, 4, 5})
	sub := s.Between(t0.Add(time.Minute), t0.Add(4*time.Minute))
	want := []float64{1, 2, 3}
	got := sub.Values()
	if len(got) != len(want) {
		t.Fatalf("Between returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Between returned %v, want %v", got, want)
		}
	}
}

func TestTailN(t *testing.T) {
	s := FromValues(t0, time.Second, []float64{1, 2, 3, 4})
	if got := s.TailN(2).Values(); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("TailN(2) = %v", got)
	}
	if got := s.TailN(10).Values(); len(got) != 4 {
		t.Fatalf("TailN(10) len = %d, want 4", len(got))
	}
}

func TestResampleMeanAndSum(t *testing.T) {
	// Two points per minute.
	s := New(0)
	for i := 0; i < 6; i++ {
		s.MustAppend(t0.Add(time.Duration(i)*30*time.Second), float64(i))
	}
	mean := s.Resample(time.Minute, AggMean)
	if mean.Len() != 3 {
		t.Fatalf("resample mean len = %d, want 3", mean.Len())
	}
	if got := mean.At(0).V; !approx(got, 0.5, 1e-12) {
		t.Fatalf("bucket 0 mean = %v, want 0.5", got)
	}
	sum := s.Resample(time.Minute, AggSum)
	if got := sum.At(2).V; !approx(got, 9, 1e-12) {
		t.Fatalf("bucket 2 sum = %v, want 9", got)
	}
}

func TestResampleSkipsEmptyBuckets(t *testing.T) {
	s := New(0)
	s.MustAppend(t0, 1)
	s.MustAppend(t0.Add(5*time.Minute), 2)
	r := s.Resample(time.Minute, AggMean)
	if r.Len() != 2 {
		t.Fatalf("resample len = %d, want 2 (empty buckets skipped)", r.Len())
	}
	if !r.At(1).T.Equal(t0.Add(5 * time.Minute)) {
		t.Fatalf("second bucket time = %v, want %v", r.At(1).T, t0.Add(5*time.Minute))
	}
}

func TestStats(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(vs); !approx(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Min(vs); got != 2 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max(vs); got != 9 {
		t.Fatalf("Max = %v", got)
	}
	if got := Percentile(vs, 50); !approx(got, 4.5, 1e-12) {
		t.Fatalf("p50 = %v, want 4.5", got)
	}
	if got := Percentile(vs, 0); got != 2 {
		t.Fatalf("p0 = %v, want 2", got)
	}
	if got := Percentile(vs, 100); got != 9 {
		t.Fatalf("p100 = %v, want 9", got)
	}
}

func TestStatsEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Fatal("empty-slice stats should be NaN")
	}
	if Sum(nil) != 0 {
		t.Fatal("Sum(nil) != 0")
	}
	if AggCount.Apply(nil) != 0 {
		t.Fatal("AggCount on empty != 0")
	}
}

func TestAggNames(t *testing.T) {
	cases := map[Agg]string{
		AggMean: "Average", AggSum: "Sum", AggMin: "Minimum",
		AggMax: "Maximum", AggCount: "SampleCount", AggP90: "p90",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestAlignedValues(t *testing.T) {
	x := FromValues(t0, time.Minute, []float64{1, 2, 3, 4, 5, 6})
	y := FromValues(t0.Add(2*time.Minute), time.Minute, []float64{30, 40, 50, 60, 70, 80})
	xs, ys := AlignedValues(x, y, time.Minute)
	if len(xs) != len(ys) {
		t.Fatalf("aligned lengths differ: %d vs %d", len(xs), len(ys))
	}
	if len(xs) != 4 {
		t.Fatalf("aligned length = %d, want 4 (overlap minutes 2..5)", len(xs))
	}
	if !slices.Equal(xs, []float64{3, 4, 5, 6}) || !slices.Equal(ys, []float64{30, 40, 50, 60}) {
		t.Fatalf("aligned values = %v, %v; want minutes 2..5 of each", xs, ys)
	}
}

func TestAlignedValuesNoOverlap(t *testing.T) {
	x := FromValues(t0, time.Minute, []float64{1, 2})
	y := FromValues(t0.Add(time.Hour), time.Minute, []float64{3, 4})
	xs, ys := AlignedValues(x, y, time.Minute)
	if xs != nil || ys != nil {
		t.Fatalf("non-overlapping align = %v %v, want nil nil", xs, ys)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, math.Mod(v, 1e6))
			}
		}
		if len(vs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			cur := Percentile(vs, p)
			if cur < prev-1e-9 {
				return false
			}
			if cur < Min(vs)-1e-9 || cur > Max(vs)+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
