package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// naiveAlign is the obviously-correct materializing reference: bucket
// every point through BucketStart into fresh slices, preserving order.
type naiveBucket struct {
	start int64
	times []int64
	vals  []float64
}

func naiveAlign(v View, period time.Duration) []naiveBucket {
	var out []naiveBucket
	for i := 0; i < v.Len(); i++ {
		start := BucketStart(v.NanoAt(i), period)
		if len(out) == 0 || out[len(out)-1].start != start {
			out = append(out, naiveBucket{start: start})
		}
		b := &out[len(out)-1]
		b.times = append(b.times, v.NanoAt(i))
		b.vals = append(b.vals, v.ValueAt(i))
	}
	return out
}

// TestAlignMatchesNaive is the property test for the Align iterator:
// across random series (including pre-epoch timestamps, duplicates, and
// sparse gaps) and random periods, the zero-copy iterator must yield
// bit-for-bit the buckets the naive materializing implementation builds.
func TestAlignMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		period := time.Duration(1+rng.Intn(50)) * time.Second
		// Start some trials before the epoch to exercise floor division.
		tn := int64(rng.Intn(2_000_000)-1_000_000) * int64(time.Second)
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) > 0 { // duplicates stay in one bucket
				tn += int64(rng.Intn(30)) * int64(time.Second)
			}
			s.MustAppend(time.Unix(0, tn).UTC(), rng.NormFloat64()*1e3)
		}
		v := s.ViewAll()

		want := naiveAlign(v, period)
		it := v.Align(period)
		got := 0
		for {
			start, lo, hi, ok := it.Next()
			if !ok {
				break
			}
			sub := v.sub(lo, hi)
			if got >= len(want) {
				t.Fatalf("trial %d: iterator yielded more than %d buckets", trial, len(want))
			}
			w := want[got]
			if start != w.start {
				t.Fatalf("trial %d bucket %d: start %d, want %d", trial, got, start, w.start)
			}
			if sub.Len() != len(w.times) {
				t.Fatalf("trial %d bucket %d: %d points, want %d", trial, got, sub.Len(), len(w.times))
			}
			for i := 0; i < sub.Len(); i++ {
				if sub.NanoAt(i) != w.times[i] {
					t.Fatalf("trial %d bucket %d point %d: ts %d, want %d", trial, got, i, sub.NanoAt(i), w.times[i])
				}
				if math.Float64bits(sub.ValueAt(i)) != math.Float64bits(w.vals[i]) {
					t.Fatalf("trial %d bucket %d point %d: value %x, want %x",
						trial, got, i, math.Float64bits(sub.ValueAt(i)), math.Float64bits(w.vals[i]))
				}
			}
			got++
		}
		if got != len(want) {
			t.Fatalf("trial %d: iterator yielded %d buckets, want %d", trial, got, len(want))
		}
	}
}

// TestAlignBucketBoundaries pins the epoch anchoring: two series with
// different first-point offsets must land their overlapping points in
// identical buckets — the invariant Resample (first-point anchored)
// does not provide and the join operator needs.
func TestAlignBucketBoundaries(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	a := FromValues(base.Add(3*time.Second), time.Second, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	b := FromValues(base.Add(5*time.Second), time.Second, []float64{10, 20, 30, 40, 50, 60, 70, 80})

	starts := func(s *Series) []int64 {
		var out []int64
		it := s.ViewAll().Align(10 * time.Second)
		for {
			start, _, _, ok := it.Next()
			if !ok {
				return out
			}
			out = append(out, start)
		}
	}
	sa, sb := starts(a), starts(b)
	if len(sa) != 2 || len(sb) != 2 {
		t.Fatalf("bucket counts %d/%d, want 2/2", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("bucket %d: %d vs %d — alignment is not shared", i, sa[i], sb[i])
		}
		if sa[i]%int64(10*time.Second) != 0 {
			t.Fatalf("bucket %d start %d not epoch-aligned", i, sa[i])
		}
	}
}

func TestAlignEmptyView(t *testing.T) {
	it := New(0).ViewAll().Align(time.Second)
	if _, _, _, ok := it.Next(); ok {
		t.Fatal("empty view yielded a bucket")
	}
}
