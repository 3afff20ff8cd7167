package main

import (
	"math"
	"sort"

	apiv1 "repro/api/v1"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; NaN-free for non-empty input, 0 for empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is the five-number description every printed metric carries.
type summary struct {
	N                      int
	P25, P50, P75          float64
	P99, Mean, Best, Worst float64
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return summary{
		N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.50), P75: quantile(s, 0.75),
		P99: quantile(s, 0.99), Mean: sum / float64(len(s)), Best: s[0], Worst: s[len(s)-1],
	}
}

func median(v []float64) float64 { return summarize(v).P50 }

// histDelta subtracts an earlier scrape of the same fixed-bucket histogram.
// Only what histQuantileUS reads is kept: bounds, counts, the maximum.
func histDelta(after, before apiv1.LatencyHistogram) apiv1.LatencyHistogram {
	out := apiv1.LatencyHistogram{BoundsUS: after.BoundsUS, Counts: append([]uint64(nil), after.Counts...), Count: after.Count - before.Count, MaxUS: after.MaxUS}
	for i := range out.Counts {
		if i < len(before.Counts) {
			out.Counts[i] -= before.Counts[i]
		}
	}
	return out
}

// histMerge adds b into a (same bounds).
func histMerge(a apiv1.LatencyHistogram, b *apiv1.LatencyHistogram) apiv1.LatencyHistogram {
	if b == nil {
		return a
	}
	if a.Counts == nil {
		a.BoundsUS = b.BoundsUS
		a.Counts = make([]uint64, len(b.Counts))
	}
	for i := range b.Counts {
		if i < len(a.Counts) {
			a.Counts[i] += b.Counts[i]
		}
	}
	a.Count += b.Count
	a.MaxUS = max(a.MaxUS, b.MaxUS)
	return a
}

// histQuantileUS estimates a quantile of a bucketed histogram in
// microseconds, interpolating inside the bucket the rank falls in; the
// overflow bucket answers with the recorded maximum.
func histQuantileUS(h apiv1.LatencyHistogram, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum := 0.0
	for i, c := range h.Counts {
		next := cum + float64(c)
		if c > 0 && rank <= next {
			if i >= len(h.BoundsUS) {
				return h.MaxUS
			}
			lo := 0.0
			if i > 0 {
				lo = float64(h.BoundsUS[i-1])
			}
			hi := float64(h.BoundsUS[i])
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.MaxUS
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
