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
	for i, a := range measureSeeds(t) {
		seed := scorecardSeeds[i]
		mem, nomem := a.e7.WithMemory, a.e7.Memoryless
		t.Logf("seed %d: catch-up %.0f vs %.0f min, |err| %.2f vs %.2f (with memory vs memoryless)",
			seed, mem.CatchUpMinutes, nomem.CatchUpMinutes, mem.MeanAbsError, nomem.MeanAbsError)
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
// the violation rate materially below reactive-only scaling, on every seed.
func TestPredictiveBeatsReactiveOnSteepRamp(t *testing.T) {
	for i, a := range measureSeeds(t) {
		seed, r := scorecardSeeds[i], a.e8
		t.Logf("seed %d: violation rate reactive %.3f, predictive %.3f, %d pre-scale actions",
			seed, r.ReactiveViolationRate, r.PredictiveViolationRate, r.PreScaleActions)
		if r.ReactiveViolationRate < 0.05 {
			t.Errorf("seed %d: scenario too easy: reactive violation rate %.3f", seed, r.ReactiveViolationRate)
			continue
		}
		if r.PredictiveViolationRate > r.ReactiveViolationRate*0.7 {
			t.Errorf("seed %d: predictive %.3f not materially better than reactive %.3f",
				seed, r.PredictiveViolationRate, r.ReactiveViolationRate)
		}
		if r.PreScaleActions == 0 {
			t.Errorf("seed %d: no predictive scale-ups applied", seed)
		}
	}
}
