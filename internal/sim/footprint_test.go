package sim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/timeseries"
)

// What one more flow costs a running manager, as absolute budgets: a flow
// must cost what it uses, not what it might one day store. The control
// plane materialises every flow it creates, recovers or runs a lab trial on
// through New, and a paced flow's first tick follows within one wall tick.
// The budgets leave 1.5–2× headroom over what is measured (43 KB / 377
// allocs, 44 KB / 448 allocs); pre-sizing one metric's columns per flow or
// building a key population per flow overshoots them tenfold.

var footprintSink *Harness

// marginalFlow materialises a flow of spec and, with firstTick, advances it
// by one default step.
func marginalFlow(spec flow.Spec, firstTick bool) error {
	h, err := New(spec, Options{})
	if err == nil && firstTick {
		err = h.Advance(10 * time.Second)
	}
	footprintSink = h
	return err
}

// warmSpec returns the default flow's spec after one flow has paid the
// process-wide setup a first flow pays once (the shared key population), so
// every later flow measures the marginal cost.
func warmSpec(tb testing.TB) flow.Spec {
	tb.Helper()
	spec, err := flow.DefaultClickstream(3000)
	if err == nil {
		err = marginalFlow(spec, true)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

func newFlow(b *testing.B, firstTick bool) {
	spec := warmSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := marginalFlow(spec, firstTick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNew(b *testing.B)          { newFlow(b, false) }
func BenchmarkNewFirstTick(b *testing.B) { newFlow(b, true) }

// TestFlowFootprint counts allocations with testing.AllocsPerRun and bytes
// as the runtime.MemStats.TotalAlloc delta over the same calls. Both are
// counts, so no timed benchmark loop is needed.
func TestFlowFootprint(t *testing.T) {
	spec := warmSpec(t)
	const runs = 20
	for _, tc := range []struct {
		name      string
		firstTick bool
		maxBytes  uint64
		maxAllocs float64
	}{
		{"New", false, 64 << 10, 500},
		{"New+first tick", true, 100 << 10, 1000},
	} {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if e := marginalFlow(spec, tc.firstTick); e != nil {
				err = e
			}
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun makes one warm-up call before its measured runs.
		bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%s: %d B, %.0f allocs per flow", tc.name, bytes, allocs)
		if bytes > tc.maxBytes {
			t.Errorf("%s allocates %d B per flow, budget %d", tc.name, bytes, tc.maxBytes)
		}
		if allocs > tc.maxAllocs {
			t.Errorf("%s makes %.0f allocations per flow, budget %.0f", tc.name, allocs, tc.maxAllocs)
		}
	}
}

// historyPerPointBudget caps the live heap a running flow grows by per
// stored datapoint. Every series of a default flow advances on the
// simulation step, so the metric store derives timestamps from the
// cadence; the 14 series that change on nearly every tick keep their
// values (8 B each), and the 15 that repeat their last value keep one
// 16-byte run per change. That measures about 5.5 B per point; the rest of
// the budget is slice growth headroom and the per-tick state that is not
// metric history. Storing every value explicitly measures about 10.7 B per
// point and overshoots it, as storing a 16-byte (timestamp, value) pair
// per datapoint (about 20 B) does.
const historyPerPointBudget = 8.5

// TestFlowHistoryFootprint measures live-heap growth per datapoint across a
// 6 h advance of a default flow, after a full GC on both sides.
func TestFlowHistoryFootprint(t *testing.T) {
	spec, err := flow.DefaultClickstream(3000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(spec, Options{})
	if err == nil {
		err = h.Advance(10 * time.Second)
	}
	if err != nil {
		t.Fatal(err)
	}
	heap0, points0 := liveHeap(), storedPoints(h)
	if err := h.Advance(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	heap1, points1 := liveHeap(), storedPoints(h)
	runtime.KeepAlive(h)
	grown := points1 - points0
	if grown <= 0 {
		t.Fatalf("advance stored %d datapoints", grown)
	}
	perPoint := (float64(heap1) - float64(heap0)) / float64(grown)
	t.Logf("6h advance: %d datapoints, live heap %+d B, %.2f B per datapoint", grown, int64(heap1)-int64(heap0), perPoint)
	if perPoint > historyPerPointBudget {
		t.Errorf("live heap grows %.2f B per datapoint, budget %.1f B", perPoint, historyPerPointBudget)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
// The second collection frees what the first only moved to sync.Pool's
// victim cache, which earlier tests can leave behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// storedPoints counts the datapoints h's metric store holds.
func storedPoints(h *Harness) int {
	n := 0
	h.Store.Each(func(_ metricstore.MetricID, v timeseries.View) { n += v.Len() })
	return n
}
