package exper

import (
	"math"
	"testing"
)

// TestGainMemoryAblation pins the paper's §3.3 claim mechanism: carrying
// the Eq. 7 gain across control periods ("memory of recent controller
// decisions") settles on a sustained ramp no later than the ablated
// memoryless variant and tracks it no worse, on every seed.
func TestGainMemoryAblation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 8, 42} {
		r, err := GainMemory(seed)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d\n%s", seed, r.Table())
		mem, nomem := r.WithMemory, r.Memoryless
		if math.IsInf(mem.CatchUpMinutes, 1) {
			t.Errorf("seed %d: with-memory controller never caught up", seed)
		}
		if mem.CatchUpMinutes > nomem.CatchUpMinutes {
			t.Errorf("seed %d: with-memory catch-up %.0f min slower than memoryless %.0f min",
				seed, mem.CatchUpMinutes, nomem.CatchUpMinutes)
		}
		if mem.MeanAbsError > nomem.MeanAbsError {
			t.Errorf("seed %d: with-memory |err| %.2f worse than memoryless %.2f",
				seed, mem.MeanAbsError, nomem.MeanAbsError)
		}
	}
}

// TestPredictiveBeatsReactiveOnSteepRamp pins E8's shape: with a steep ramp
// and a realistic analytics boot delay, forecast pre-provisioning must cut
// the violation rate materially below reactive-only scaling.
func TestPredictiveBeatsReactiveOnSteepRamp(t *testing.T) {
	r, err := Predictive(42)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Table())
	if r.ReactiveViolationRate < 0.05 {
		t.Fatalf("scenario too easy: reactive violation rate %.3f", r.ReactiveViolationRate)
	}
	if r.PredictiveViolationRate > r.ReactiveViolationRate*0.7 {
		t.Errorf("predictive %.3f not materially better than reactive %.3f",
			r.PredictiveViolationRate, r.ReactiveViolationRate)
	}
	if r.PreScaleActions == 0 {
		t.Error("no predictive scale-ups applied")
	}
}
