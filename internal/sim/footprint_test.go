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

// newFlow is one benchmark iteration: materialise the flow and, with
// firstTick, advance it by one default step. The process-wide setup a first
// flow pays once (the shared key population) is done before the timer
// starts, so every iteration measures the marginal flow.
func newFlow(b *testing.B, firstTick bool) {
	spec, err := flow.DefaultClickstream(3000)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := New(spec, Options{})
	if err == nil {
		err = warm.Advance(10 * time.Second)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := New(spec, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if firstTick {
			if err := h.Advance(10 * time.Second); err != nil {
				b.Fatal(err)
			}
		}
		footprintSink = h
	}
}

func BenchmarkNew(b *testing.B)          { newFlow(b, false) }
func BenchmarkNewFirstTick(b *testing.B) { newFlow(b, true) }

func TestFlowFootprint(t *testing.T) {
	for _, tc := range []struct {
		name      string
		bench     func(*testing.B)
		maxBytes  int64
		maxAllocs int64
	}{
		{"New", BenchmarkNew, 64 << 10, 500},
		{"New+first tick", BenchmarkNewFirstTick, 100 << 10, 1000},
	} {
		r := testing.Benchmark(tc.bench)
		t.Logf("%s: %d B/op, %d allocs/op, %v/op", tc.name, r.AllocedBytesPerOp(), r.AllocsPerOp(), time.Duration(r.NsPerOp()))
		if got := r.AllocedBytesPerOp(); got > tc.maxBytes {
			t.Errorf("%s allocates %d B per flow, budget %d", tc.name, got, tc.maxBytes)
		}
		if got := r.AllocsPerOp(); got > tc.maxAllocs {
			t.Errorf("%s makes %d allocations per flow, budget %d", tc.name, got, tc.maxAllocs)
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
// victim cache, which TestFlowFootprint's benchmarks leave behind.
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
