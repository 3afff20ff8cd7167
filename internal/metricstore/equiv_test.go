package metricstore_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metricstore"
	"repro/internal/simtime"
	"repro/internal/timeseries"
)

// The equivalence property: the columnar, handle-based store answers every
// query bit-for-bit identically to the frozen pre-rebuild implementation
// (legacyStore, legacy_test.go), on randomised workloads, whether appends
// go through a build-time handle or resolve one per call, with and without
// retention. The oracle's bucket-slice Resample is the reference for the
// store's bucket walker.

// equivMetric is one randomly generated metric identity.
type equivMetric struct {
	ns, name string
	dims     map[string]string
}

func genMetrics(rng *rand.Rand) []equivMetric {
	nss := []string{"Ingestion/Stream", "Analytics/Compute", "Storage/KVStore"}
	names := []string{"IncomingRecords", "CPUUtilization", "WriteUtilization", "ThrottleEvents"}
	n := 3 + rng.Intn(5)
	out := make([]equivMetric, 0, n)
	for i := 0; i < n; i++ {
		dims := map[string]string{}
		for d := 0; d < rng.Intn(3); d++ {
			dims[fmt.Sprintf("dim%d", d)] = fmt.Sprintf("v%d", rng.Intn(3))
		}
		out = append(out, equivMetric{
			ns:   nss[rng.Intn(len(nss))],
			name: fmt.Sprintf("%s-%d", names[rng.Intn(len(names))], i),
			dims: dims,
		})
	}
	return out
}

// driveBoth feeds an identical randomised workload into both stores,
// appending through Put on the legacy side and on the new side through a
// mix of per-call resolution (storePut) and build-time handles. Gaps are
// random 1–20 s, so series almost never keep a cadence.
func driveBoth(t *testing.T, rng *rand.Rand, st *metricstore.Store, legacy *legacyStore, metrics []equivMetric, points int) {
	t.Helper()
	now := simtime.Epoch
	handles := internHandles(t, st, metrics)
	for i := 0; i < points; i++ {
		now = now.Add(time.Duration(1+rng.Intn(20)) * time.Second)
		mi := rng.Intn(len(metrics))
		appendBoth(t, rng, st, legacy, metrics[mi], handles[mi], now)
	}
}

// driveCadence is driveBoth with the workload the simulation produces:
// each metric advances on its own fixed step (occasionally 0, equal
// timestamps being legal), so its series stays cadence-encoded. About half
// the metrics keep it throughout; in the others, an off-cadence append
// sprinkled after the third point materialises the timestamps mid-stream.
func driveCadence(t *testing.T, rng *rand.Rand, st *metricstore.Store, legacy *legacyStore, metrics []equivMetric, points int) {
	t.Helper()
	handles := internHandles(t, st, metrics)
	steps := make([]time.Duration, len(metrics))
	next := make([]time.Time, len(metrics))
	appended := make([]int, len(metrics))
	offCadence := make([]bool, len(metrics))
	for i := range metrics {
		if rng.Intn(10) > 0 {
			steps[i] = time.Duration(5*(1+rng.Intn(20))) * time.Second
		}
		next[i] = simtime.Epoch.Add(time.Duration(rng.Intn(600)) * time.Second)
		offCadence[i] = rng.Intn(2) == 0
	}
	for i := 0; i < points; i++ {
		mi := rng.Intn(len(metrics))
		appendBoth(t, rng, st, legacy, metrics[mi], handles[mi], next[mi])
		appended[mi]++
		next[mi] = next[mi].Add(steps[mi])
		if offCadence[mi] && appended[mi] >= 3 && rng.Intn(150) == 0 {
			next[mi] = next[mi].Add(time.Duration(1+rng.Intn(30)) * time.Second)
		}
	}
}

// driveRuns is driveCadence with the values a flow's step-shaped metrics
// publish: each metric repeats its last value most of the time and
// otherwise draws from a small set, so its series stays run-encoded. In
// about half the metrics the values turn varied after a random point in
// the first half of the metric's points, so runs stop paying and the
// column switches to explicit values mid-stream.
func driveRuns(t *testing.T, rng *rand.Rand, st *metricstore.Store, legacy *legacyStore, metrics []equivMetric, points int) {
	t.Helper()
	handles := internHandles(t, st, metrics)
	steps := make([]time.Duration, len(metrics))
	next := make([]time.Time, len(metrics))
	last := make([]float64, len(metrics))
	turnsDense := make([]int, len(metrics))
	appended := make([]int, len(metrics))
	levels := []float64{0, 1, 2.5, 40, -3, 0.1}
	for i := range metrics {
		steps[i] = time.Duration(5*(1+rng.Intn(20))) * time.Second
		next[i] = simtime.Epoch.Add(time.Duration(rng.Intn(600)) * time.Second)
		last[i] = levels[rng.Intn(len(levels))]
		turnsDense[i] = -1
		if rng.Intn(2) == 0 {
			turnsDense[i] = rng.Intn(points / (2 * len(metrics)))
		}
	}
	for i := 0; i < points; i++ {
		mi := rng.Intn(len(metrics))
		switch {
		case turnsDense[mi] >= 0 && appended[mi] >= turnsDense[mi]:
			last[mi] = math.Round(rng.NormFloat64()*1e6) / 1e3
		case rng.Intn(10) == 0:
			last[mi] = levels[rng.Intn(len(levels))]
		}
		appendValue(t, rng, st, legacy, metrics[mi], handles[mi], next[mi], last[mi])
		appended[mi]++
		next[mi] = next[mi].Add(steps[mi])
	}
}

func internHandles(t *testing.T, st *metricstore.Store, metrics []equivMetric) []*metricstore.Handle {
	t.Helper()
	handles := make([]*metricstore.Handle, len(metrics))
	for i, m := range metrics {
		h, err := st.Handle(m.ns, m.name, m.dims)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	return handles
}

// appendBoth appends one random value at now to both stores: Put on the
// legacy side, per-call resolution or the handle at random on the new.
func appendBoth(t *testing.T, rng *rand.Rand, st *metricstore.Store, legacy *legacyStore, m equivMetric, h *metricstore.Handle, now time.Time) {
	t.Helper()
	v := math.Round(rng.NormFloat64()*1e6) / 1e3 // finite, varied, exact
	appendValue(t, rng, st, legacy, m, h, now, v)
}

// appendValue is appendBoth with the value given.
func appendValue(t *testing.T, rng *rand.Rand, st *metricstore.Store, legacy *legacyStore, m equivMetric, h *metricstore.Handle, now time.Time, v float64) {
	t.Helper()
	if err := legacy.Put(m.ns, m.name, m.dims, now, v); err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		storePut(st, m.ns, m.name, m.dims, now, v)
	} else if err := h.Append(now, v); err != nil {
		t.Fatal(err)
	}
}

// assertSeriesEqual requires the new series to match the legacy one
// bit-for-bit in timestamps and values.
func assertSeriesEqual(t *testing.T, tag string, got *timeseries.Series, want *legacySeries) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d != legacy %d", tag, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if !g.T.Equal(w.T) {
			t.Fatalf("%s[%d]: time %v != legacy %v", tag, i, g.T, w.T)
		}
		gb, wb := math.Float64bits(g.V), math.Float64bits(w.V)
		if gb != wb {
			t.Fatalf("%s[%d]: value %v (bits %x) != legacy %v (bits %x)", tag, i, g.V, gb, w.V, wb)
		}
	}
}

func statsList() []timeseries.Agg {
	return []timeseries.Agg{
		timeseries.AggMean, timeseries.AggSum, timeseries.AggMin, timeseries.AggMax,
		timeseries.AggCount, timeseries.AggP50, timeseries.AggP90, timeseries.AggP99,
	}
}

func TestColumnarStoreMatchesLegacyRandomised(t *testing.T) {
	// Seeds 0–7 draw random gaps (explicit time columns); seeds 8–15 keep
	// each metric on a cadence, so the store's reads run on cadence-encoded
	// columns and across the switch to explicit ones; seeds 16–23 also
	// repeat values, so reads run on run-encoded value columns and across
	// their switch to explicit values.
	for seed := int64(0); seed < 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			st := metricstore.NewStore()
			legacy := newLegacyStore()
			if seed%2 == 1 {
				// Half the seeds prune: retention must not change answers
				// inside the retained window relative to the same-pruned
				// legacy store.
				st.SetRetention(30 * time.Minute)
				legacy.SetRetention(30 * time.Minute)
			}
			metrics := genMetrics(rng)
			switch {
			case seed < 8:
				driveBoth(t, rng, st, legacy, metrics, 2000)
			case seed < 16:
				driveCadence(t, rng, st, legacy, metrics, 2000)
			default:
				driveRuns(t, rng, st, legacy, metrics, 2000)
			}

			for qi := 0; qi < 50; qi++ {
				m := metrics[rng.Intn(len(metrics))]
				// Random window, sometimes open-ended.
				var from, to time.Time
				if rng.Intn(4) > 0 {
					from = simtime.Epoch.Add(time.Duration(rng.Intn(40000)) * time.Second)
				}
				if rng.Intn(4) > 0 {
					to = from.Add(time.Duration(rng.Intn(40000)) * time.Second)
				}
				var period time.Duration
				if rng.Intn(2) == 0 {
					period = time.Duration(1+rng.Intn(600)) * time.Second
				}
				stat := statsList()[rng.Intn(8)]
				tag := fmt.Sprintf("q%d %s/%s period=%v stat=%v", qi, m.ns, m.name, period, stat)

				want, wantErr := legacy.GetStatistics(legacyQuery{
					Namespace: m.ns, Name: m.name, Dimensions: m.dims,
					From: from, To: to, Period: period, Stat: stat,
				})
				h, ok := st.Lookup(m.ns, m.name, m.dims)
				if (wantErr == nil) != ok {
					t.Fatalf("%s: lookup ok %v vs legacy err %v", tag, ok, wantErr)
				}
				if wantErr != nil {
					continue
				}
				assertSeriesEqual(t, tag, h.Window(metricstore.WindowQuery{
					From: from, To: to, Period: period, Stat: stat,
				}), want)

				// Raw single-pass Stat must match computing the legacy
				// statistic over the legacy window copy.
				if period == 0 {
					gotV, gotN := h.Stat(from, to, stat)
					wantV, wantN, err := legacy.WindowStat(legacyQuery{
						Namespace: m.ns, Name: m.name, Dimensions: m.dims,
						From: from, To: to, Stat: stat,
					})
					if err != nil {
						t.Fatal(err)
					}
					if gotN != wantN {
						t.Fatalf("%s: stat n %d != legacy %d", tag, gotN, wantN)
					}
					if math.Float64bits(gotV) != math.Float64bits(wantV) &&
						!(math.IsNaN(gotV) && math.IsNaN(wantV)) {
						t.Fatalf("%s: stat %v != legacy %v", tag, gotV, wantV)
					}
				}
			}

			// Latest agrees for every metric.
			for _, m := range metrics {
				want, wok := legacy.Latest(m.ns, m.name, m.dims)
				got, gok := storeLatest(st, m.ns, m.name, m.dims)
				if wok != gok {
					t.Fatalf("latest %s/%s: ok %v vs legacy %v", m.ns, m.name, gok, wok)
				}
				if wok && (!got.T.Equal(want.T) || math.Float64bits(got.V) != math.Float64bits(want.V)) {
					t.Fatalf("latest %s/%s: %v/%v vs legacy %v/%v", m.ns, m.name, got.T, got.V, want.T, want.V)
				}
			}
		})
	}
}

// TestHandleAndPutShareSeries confirms a build-time handle and per-call
// resolution write to the same interned series.
func TestHandleAndPutShareSeries(t *testing.T) {
	st := metricstore.NewStore()
	dims := map[string]string{"StreamName": "clicks"}
	h, err := st.Handle("Ingestion/Stream", "IncomingRecords", dims)
	if err != nil {
		t.Fatal(err)
	}
	t0 := simtime.Epoch
	storePut(st, "Ingestion/Stream", "IncomingRecords", dims, t0, 1)
	if err := h.Append(t0.Add(time.Second), 2); err != nil {
		t.Fatal(err)
	}
	if n := h.Window(metricstore.WindowQuery{}).Len(); n != 2 {
		t.Fatalf("handle sees %d points, want 2", n)
	}
	raw := storeRaw(st, "Ingestion/Stream", "IncomingRecords", dims)
	if raw.Len() != 2 {
		t.Fatalf("raw sees %d points, want 2", raw.Len())
	}
	if p, ok := h.Latest(); !ok || p.V != 2 {
		t.Fatalf("latest = %v,%v want 2", p, ok)
	}
	// Out-of-order appends stay rejected through both paths.
	if err := h.Append(t0, 3); err == nil {
		t.Fatal("out-of-order handle append accepted")
	}
	if err := st.MustHandle("Ingestion/Stream", "IncomingRecords", dims).Append(t0, 3); err == nil {
		t.Fatal("out-of-order append through a fresh handle accepted")
	}
}

// TestInternedUnpublishedMetricIsInvisible: resolving a handle at build
// time must not make the metric observable before its first datapoint —
// pre-first-tick queries, listings and lookups behave exactly as when
// entries were only created on first append.
func TestInternedUnpublishedMetricIsInvisible(t *testing.T) {
	st := metricstore.NewStore()
	dims := map[string]string{"StreamName": "clicks"}
	h := st.MustHandle("Ingestion/Stream", "IncomingRecords", dims)

	if got := st.ListMetrics(""); len(got) != 0 {
		t.Fatalf("unpublished metric listed: %v", got)
	}
	if got := st.Namespaces(); len(got) != 0 {
		t.Fatalf("unpublished namespace listed: %v", got)
	}
	if _, ok := st.Lookup("Ingestion/Stream", "IncomingRecords", dims); ok {
		t.Fatal("Lookup found unpublished metric")
	}
	if raw := storeRaw(st, "Ingestion/Stream", "IncomingRecords", dims); raw != nil {
		t.Fatalf("Raw returned %v for unpublished metric", raw)
	}
	visited := 0
	st.Each(func(metricstore.MetricID, timeseries.View) { visited++ })
	if visited != 0 {
		t.Fatalf("Each visited %d unpublished metrics", visited)
	}

	// First datapoint makes it visible everywhere.
	h.MustAppend(simtime.Epoch, 1)
	if got := st.ListMetrics(""); len(got) != 1 {
		t.Fatalf("published metric not listed: %v", got)
	}
	if _, ok := st.Lookup("Ingestion/Stream", "IncomingRecords", dims); !ok {
		t.Fatal("Lookup missed published metric")
	}
}

// TestHandleRetentionPrunes confirms the amortised pruning drops exactly
// the datapoints outside the window.
func TestHandleRetentionPrunes(t *testing.T) {
	st := metricstore.NewStore()
	st.SetRetention(100 * time.Second)
	h := st.MustHandle("NS", "M", nil)
	t0 := simtime.Epoch
	for i := 0; i < 1000; i++ {
		h.MustAppend(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
	got := h.Window(metricstore.WindowQuery{})
	if got.Len() != 101 { // points at t-100 .. t inclusive
		t.Fatalf("retained %d points, want 101", got.Len())
	}
	if got.At(0).V != 899 {
		t.Fatalf("oldest retained value %v, want 899", got.At(0).V)
	}
}
