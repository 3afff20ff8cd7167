package query

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/metricstore"
	"repro/internal/simtime"
	"repro/internal/timeseries"
)

// The engine's oracle: a frozen materialize-everything evaluator, the
// style every read-path caller used before the engine existed —
// materialise the whole raw window per series, materialise every resample
// bucket, materialise both join sides, then aggregate. It answers two
// fixed 16-series shapes, and TestQueryEngineMatchesNaive requires the
// streaming engine to produce bit-for-bit identical columns on both.

const (
	naiveFlows  = 16
	naivePoints = 600 // 1 Hz history per series
	naiveNS     = "Analytics/Cluster"
	naiveLeft   = "RequestLatencyMs"
	naiveRight  = "AllocatedVMs"
	naiveGappy  = "QueueDepth"   // NaN on every 7th point, in 3 of 4 flows
	naiveStale  = "ErrorRate"    // first 100 s only: empty in any 5m window
	naiveRuns   = "ReplicaCount" // piecewise constant: run-encoded in the store
)

// The two shapes. Scan+agg is the cheapest useful query (the engine
// streams it without materialising anything); join+agg resamples 16
// series, joins them per flow and fuses each into one aggregate point.
const (
	naiveScanAggQ = "select flow=qb-* ns=" + naiveNS + " name=" + naiveLeft +
		" | window 10m | agg avg"
	naiveJoinAggQ = "select flow=qb-* ns=" + naiveNS + " name=" + naiveLeft +
		" | window 10m | resample 1m avg" +
		" | join 1m l/r (select flow=qb-* ns=" + naiveNS + " name=" + naiveRight +
		" | window 10m | resample 1m avg)" +
		" | agg max"
)

// naiveSource builds the 16-flow static source both evaluators read: per
// flow, naivePoints of 1 Hz latency history plus a small step-shaped VM
// count, all ending at the shared "now".
func naiveSource(t *testing.T) StaticSource {
	t.Helper()
	base := simtime.Epoch
	now := base.Add((naivePoints - 1) * time.Second)
	src := make(StaticSource, naiveFlows)
	for f := 0; f < naiveFlows; f++ {
		s := metricstore.NewStore()
		lat := s.MustHandle(naiveNS, naiveLeft, nil)
		vms := s.MustHandle(naiveNS, naiveRight, nil)
		gappy := s.MustHandle(naiveNS, naiveGappy, nil)
		stale := s.MustHandle(naiveNS, naiveStale, nil)
		runs := s.MustHandle(naiveNS, naiveRuns, nil)
		for i := 0; i < naivePoints; i++ {
			ts := base.Add(time.Duration(i) * time.Second)
			lat.MustAppend(ts, 100+float64(f)+float64(i%60))
			vms.MustAppend(ts, float64(2+(f+i/200)%3))
			q := float64((i*7+f*13)%50) - 10
			if f%4 != 3 && (i+f)%7 == 0 { // some flows open on a NaN
				q = math.NaN()
			}
			gappy.MustAppend(ts, q)
			if i < 100 {
				stale.MustAppend(ts, float64(i%5))
			}
			runs.MustAppend(ts, naiveLevels[(i/(17+f)+f)%len(naiveLevels)])
		}
		src[fmt.Sprintf("qb-%02d", f)] = StaticFlow{Store: s, Now: now}
	}
	return src
}

// naiveLevels are the values naiveRuns steps between, held for 17–32
// points at a time: a NaN run, both zeros (adjacent, so a percentile
// bucket can hold both), and decimals whose repeated sum is not their
// product.
var naiveLevels = []float64{3, 0.1, math.NaN(), 0, math.Copysign(0, -1), 0.7, 12}

// naiveSeries is one series of a naive evaluation, in the engine's
// column shape so equivalence checks compare directly.
type naiveSeries struct {
	Flow string
	Ts   []int64
	Vs   []float64
}

// naiveWindow materialises the raw [now-window, now] datapoints of one
// metric as an independent series — the legacy read pattern.
func naiveWindow(h *metricstore.Handle, now time.Time, window time.Duration) *timeseries.Series {
	return h.Window(metricstore.WindowQuery{
		From: now.Add(-window),
		To:   now.Add(time.Nanosecond),
	})
}

// naiveResample buckets a materialised series into epoch-aligned periods
// the materialising way: one []float64 per bucket, then one Apply per
// bucket.
func naiveResample(s *timeseries.Series, period time.Duration, stat timeseries.Agg) (ts []int64, vs []float64) {
	buckets := make(map[int64][]float64)
	var order []int64
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		b := timeseries.BucketStart(p.T.UnixNano(), period)
		if _, ok := buckets[b]; !ok {
			order = append(order, b) // points arrive in time order
		}
		buckets[b] = append(buckets[b], p.V)
	}
	for _, b := range order {
		ts = append(ts, b)
		vs = append(vs, stat.Apply(buckets[b]))
	}
	return ts, vs
}

// naiveScanAgg evaluates naiveScanAggQ by materialisation: the full raw
// window per flow, copied again into a values slice, one aggregate point
// at the window's last timestamp.
func naiveScanAgg(src StaticSource) []naiveSeries {
	return naiveScanAggOf(naiveLeft, 10*time.Minute, timeseries.AggMean)(src)
}

// naiveScanAggOf is naiveScanAgg for any metric, window and statistic; a
// flow whose window holds no points yields an empty series, as the engine
// keeps it.
func naiveScanAggOf(name string, window time.Duration, stat timeseries.Agg) func(StaticSource) []naiveSeries {
	return func(src StaticSource) []naiveSeries {
		var out []naiveSeries
		for _, id := range src.FlowIDs() {
			src.WithFlow(id, func(store *metricstore.Store, now time.Time) {
				h, ok := store.Lookup(naiveNS, name, nil)
				if !ok {
					return
				}
				raw := naiveWindow(h, now, window)
				if raw.Len() == 0 {
					out = append(out, naiveSeries{Flow: id})
					return
				}
				vals := make([]float64, raw.Len())
				for i := range vals {
					vals[i] = raw.At(i).V
				}
				out = append(out, naiveSeries{
					Flow: id,
					Ts:   []int64{raw.At(raw.Len() - 1).T.UnixNano()},
					Vs:   []float64{stat.Apply(vals)},
				})
			})
		}
		return out
	}
}

// naiveJoinAgg evaluates naiveJoinAggQ by materialisation: both raw
// windows, both resampled bucket sets, a map-backed join, and one final
// aggregate per flow.
func naiveJoinAgg(src StaticSource) []naiveSeries {
	var out []naiveSeries
	for _, id := range src.FlowIDs() {
		src.WithFlow(id, func(store *metricstore.Store, now time.Time) {
			left, lok := store.Lookup(naiveNS, naiveLeft, nil)
			right, rok := store.Lookup(naiveNS, naiveRight, nil)
			if !lok || !rok {
				return
			}
			lts, lvs := naiveResample(naiveWindow(left, now, 10*time.Minute), time.Minute, timeseries.AggMean)
			rts, rvs := naiveResample(naiveWindow(right, now, 10*time.Minute), time.Minute, timeseries.AggMean)
			byBucket := make(map[int64]float64, len(rts))
			for i, t := range rts {
				byBucket[t] = rvs[i]
			}
			var joined []float64
			var lastT int64
			for i, t := range lts {
				if rv, ok := byBucket[t]; ok {
					joined = append(joined, lvs[i]/rv)
					lastT = t
				}
			}
			if len(joined) == 0 {
				return
			}
			out = append(out, naiveSeries{
				Flow: id,
				Ts:   []int64{lastT},
				Vs:   []float64{timeseries.AggMax.Apply(joined)},
			})
		})
	}
	return out
}

// scanAggCases extends the scan+agg shape to every statistic, over a
// NaN-sprinkled metric and over windows that hold no points.
func scanAggCases() (cases []naiveCase) {
	for _, stat := range []string{"avg", "sum", "min", "max", "count", "p50", "p90", "p99"} {
		agg, _ := ParseStat(stat)
		for _, m := range []struct {
			tag, name string
			window    time.Duration
		}{
			{"", naiveLeft, 10 * time.Minute},
			{"nan_", naiveGappy, 10 * time.Minute},
			{"empty_", naiveStale, 5 * time.Minute},
		} {
			cases = append(cases, naiveCase{
				name:  "scan_agg_" + m.tag + stat,
				q:     fmt.Sprintf("select flow=qb-* ns=%s name=%s | window %v | agg %s", naiveNS, m.name, m.window, stat),
				naive: naiveScanAggOf(m.name, m.window, agg),
			})
		}
	}
	return cases
}

// runsCases runs every statistic over the piecewise-constant metric
// through each streaming path: a fused agg over the raw window, a resample
// with no prefix (the Align path), and a filter before the raw window and
// before a resample (the per-span paths).
func runsCases() (cases []naiveCase) {
	sel := fmt.Sprintf("select flow=qb-* ns=%s name=%s | window 10m", naiveNS, naiveRuns)
	for _, stat := range []string{"avg", "sum", "min", "max", "count", "p50", "p90", "p99"} {
		agg, _ := ParseStat(stat)
		cases = append(cases,
			naiveCase{
				name:  "scan_agg_runs_" + stat,
				q:     sel + " | agg " + stat,
				naive: naiveScanAggOf(naiveRuns, 10*time.Minute, agg),
			},
			naiveCase{
				name:  "resample_runs_" + stat,
				q:     sel + " | resample 1m " + stat,
				naive: naiveRunsOf(nil, time.Minute, agg),
			},
			naiveCase{
				name:  "filter_resample_runs_" + stat,
				q:     sel + " | filter v < 5 | resample 1m " + stat,
				naive: naiveRunsOf(func(v float64) bool { return v < 5 }, time.Minute, agg),
			})
	}
	return append(cases, naiveCase{
		name:  "filter_runs",
		q:     sel + " | filter v < 5",
		naive: naiveRunsOf(func(v float64) bool { return v < 5 }, 0, 0),
	})
}

// naiveRunsOf evaluates naiveRuns' raw 10m window by materialisation:
// copy the points the filter keeps (keep nil keeps all), then bucket them
// with naiveResample when period is positive.
func naiveRunsOf(keep func(float64) bool, period time.Duration, stat timeseries.Agg) func(StaticSource) []naiveSeries {
	return func(src StaticSource) []naiveSeries {
		var out []naiveSeries
		for _, id := range src.FlowIDs() {
			src.WithFlow(id, func(store *metricstore.Store, now time.Time) {
				h, ok := store.Lookup(naiveNS, naiveRuns, nil)
				if !ok {
					return
				}
				raw := naiveWindow(h, now, 10*time.Minute)
				kept := timeseries.New(raw.Len())
				for i := 0; i < raw.Len(); i++ {
					if p := raw.At(i); keep == nil || keep(p.V) {
						kept.MustAppend(p.T, p.V)
					}
				}
				ser := naiveSeries{Flow: id}
				if period > 0 {
					ser.Ts, ser.Vs = naiveResample(kept, period, stat)
				} else {
					for i := 0; i < kept.Len(); i++ {
						p := kept.At(i)
						ser.Ts, ser.Vs = append(ser.Ts, p.T.UnixNano()), append(ser.Vs, p.V)
					}
				}
				out = append(out, ser)
			})
		}
		return out
	}
}

// naiveCase is one query shape and its materialising evaluator.
type naiveCase struct {
	name  string
	q     string
	naive func(StaticSource) []naiveSeries
}

// TestQueryEngineMatchesNaive: for every shape, the streaming engine and
// the materialize-everything evaluator must produce bit-for-bit identical
// series — same flows, same timestamps, same float64 bit patterns.
func TestQueryEngineMatchesNaive(t *testing.T) {
	src := naiveSource(t)
	for _, tc := range append([]naiveCase{
		{"scan_agg", naiveScanAggQ, naiveScanAgg},
		{"join_agg", naiveJoinAggQ, naiveJoinAgg},
	}, append(scanAggCases(), runsCases()...)...) {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := Prepare(src, tc.q, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := pl.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := tc.naive(src)
			if len(res.Series) != len(want) {
				t.Fatalf("engine %d series, naive %d", len(res.Series), len(want))
			}
			for i, ser := range res.Series {
				ns := want[i]
				if ser.Flow != ns.Flow {
					t.Fatalf("series %d: engine flow %q, naive %q", i, ser.Flow, ns.Flow)
				}
				if len(ser.Ts) != len(ns.Ts) {
					t.Fatalf("series %s: engine %d points, naive %d", ser.Flow, len(ser.Ts), len(ns.Ts))
				}
				for j := range ser.Ts {
					if ser.Ts[j] != ns.Ts[j] {
						t.Errorf("series %s point %d: engine ts %d, naive %d", ser.Flow, j, ser.Ts[j], ns.Ts[j])
					}
					if math.Float64bits(ser.Vs[j]) != math.Float64bits(ns.Vs[j]) {
						t.Errorf("series %s point %d: engine %v (%x), naive %v (%x)",
							ser.Flow, j, ser.Vs[j], math.Float64bits(ser.Vs[j]), ns.Vs[j], math.Float64bits(ns.Vs[j]))
					}
				}
			}
		})
	}
}
