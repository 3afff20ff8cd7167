package sim

import (
	"fmt"
	"math"
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
// TestFlowFootprint's budgets leave 1.5–2× headroom over what is measured
// (27 KB / 146 allocs for New, 28 KB / 184 with a first tick); pre-sizing
// one metric's columns per flow or building a key population per flow
// overshoots them tenfold, and giving each flow's metric store private
// copies of the metric identities every default flow shares (44 KB / 376
// allocs) overshoots them too. A flow whose name no other flow uses holds
// the only copy of each identity that carries its name, and has budgets
// of its own over what it measures (40 KB / 238 allocs, 41 KB / 276).
//
// The live bytes a held flow keeps after a collection have their own
// budget, since allocations a flow frees again cost a fleet nothing. The
// like-flow budget is deliberately tight, 30 KiB over 25.5 KB measured
// (about 1.2×): the row reads the same bytes on every run, under -race
// too, and per-flow private identities, which it must catch, read 38 KB.

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

// renames counts the names flowSpecs has handed out.
var renames int

// flowSpecs returns the specs of n flows: spec each time, or with unique a
// copy under a name no other flow uses, so that no two flows share a
// metric whose dimensions carry the flow's name.
func flowSpecs(spec flow.Spec, n int, unique bool) []flow.Spec {
	specs := make([]flow.Spec, n)
	for i := range specs {
		specs[i] = spec
		if unique {
			renames++
			specs[i].Name = fmt.Sprintf("%s-%d", spec.Name, renames)
		}
	}
	return specs
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
		unique    bool
		maxBytes  uint64
		maxAllocs float64
	}{
		{"New", false, false, 40 << 10, 240},
		{"New+first tick", true, false, 44 << 10, 300},
		{"New, unique names", false, true, 60 << 10, 360},
		{"New+first tick, unique names", true, true, 64 << 10, 420},
	} {
		// AllocsPerRun makes one warm-up call before its measured runs.
		specs := flowSpecs(spec, runs+1, tc.unique)
		var err error
		var before, after runtime.MemStats
		next := 0
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if e := marginalFlow(specs[next], tc.firstTick); e != nil {
				err = e
			}
			next++
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
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

// liveBytesPerFlowBudget caps the live heap each held flow keeps after its
// first tick and a full collection.
const liveBytesPerFlowBudget = 30 << 10

// liveBytesPerUniqueFlowBudget is the same cap for a flow whose name no
// other flow uses; it measures 36–37 KB.
const liveBytesPerUniqueFlowBudget = 48 << 10

// TestFlowLiveFootprint holds flows the way a daemon's registry does and
// measures the live heap they keep, per flow: what decides how many flows
// one process holds.
func TestFlowLiveFootprint(t *testing.T) {
	spec := warmSpec(t)
	const flows = 200
	for _, tc := range []struct {
		name   string
		unique bool
		budget float64
	}{
		{"like flows", false, liveBytesPerFlowBudget},
		{"unique names", true, liveBytesPerUniqueFlowBudget},
	} {
		specs := flowSpecs(spec, flows, tc.unique)
		held := make([]*Harness, flows)
		heap0 := liveHeap()
		for i := range held {
			if err := marginalFlow(specs[i], true); err != nil {
				t.Fatal(err)
			}
			held[i] = footprintSink
		}
		heap1 := liveHeap()
		runtime.KeepAlive(held)
		perFlow := (float64(heap1) - float64(heap0)) / flows
		t.Logf("%d %s held after one tick: %.0f B of live heap per flow", flows, tc.name, perFlow)
		if perFlow > tc.budget {
			t.Errorf("a held flow (%s) keeps %.0f B of live heap, budget %.0f", tc.name, perFlow, tc.budget)
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

// liveHeap returns the bytes of live heap objects once two collections in
// a row free nothing, at most 20. Garbage earlier tests left can take more
// than one: a second collection frees what the first only moved to
// sync.Pool's victim cache, and the shared metric identities a collected
// store held are freed only after its cleanup has run.
func liveHeap() uint64 {
	var ms runtime.MemStats
	last, still := uint64(math.MaxUint64), 0
	for i := 0; i < 20 && still < 2; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= last {
			still++
		} else {
			still = 0
		}
		last = min(last, ms.HeapAlloc)
		runtime.Gosched()
	}
	return last
}

// storedPoints counts the datapoints h's metric store holds.
func storedPoints(h *Harness) int {
	n := 0
	h.Store.Each(func(_ metricstore.MetricID, v timeseries.View) { n += v.Len() })
	return n
}
