package sim

import (
	"testing"
	"time"

	"repro/internal/flow"
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
