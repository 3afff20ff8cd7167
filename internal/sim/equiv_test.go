package sim

// Equivalence of the aggregate (count-based) fast path with the faithful
// per-record path. The fast path exists purely for speed — experiments push
// ~10^8 records and the per-record path makes the benchmark suite
// intractable — so these tests pin down that it does not change what the
// control plane observes: layer utilisations, violation behaviour, offered
// volume and metered cost must agree within sampling noise.

import (
	"math"
	"testing"
	"time"

	"repro/internal/flow"
)

// staticSpec is a Poisson flow with fixed allocations and no controllers.
func staticSpec(t *testing.T) flow.Spec {
	t.Helper()
	spec, err := flow.NewBuilder("static").
		WithWorkload(flow.WorkloadSpec{Pattern: "constant", Base: 4000, Poisson: true}).
		WithIngestion(10, 10, 10, flow.ControllerSpec{Type: flow.ControllerNone}).
		WithAnalytics(10, 10, 10, flow.ControllerSpec{Type: flow.ControllerNone}).
		WithStorage(1000, 1000, 1000, flow.ControllerSpec{Type: flow.ControllerNone}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// overloadSpec offers twice its fixed ingestion capacity.
func overloadSpec(t *testing.T) flow.Spec {
	t.Helper()
	spec, err := flow.NewBuilder("overload").
		WithWorkload(flow.WorkloadSpec{Pattern: "constant", Base: 4000}).
		WithIngestion(2, 2, 2, flow.ControllerSpec{Type: flow.ControllerNone}).
		WithAnalytics(8, 8, 8, flow.ControllerSpec{Type: flow.ControllerNone}).
		WithStorage(500, 500, 500, flow.ControllerSpec{Type: flow.ControllerNone}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBoth materialises the same spec under both data paths and returns
// (aggregate, perRecord) results.
func runBoth(t *testing.T, spec flow.Spec, d time.Duration) (Result, Result) {
	t.Helper()
	agg, err := New(spec, Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	aggRes, err := agg.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	per, err := New(spec, Options{Step: 10 * time.Second, PerRecord: true})
	if err != nil {
		t.Fatal(err)
	}
	perRes, err := per.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	return aggRes, perRes
}

func TestAggregateMatchesPerRecordManaged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a per-record simulation")
	}
	spec := managedSpec(t, 3000)
	aggRes, perRes := runBoth(t, spec, 30*time.Minute)

	for kind, perU := range perRes.MeanUtil {
		aggU := aggRes.MeanUtil[kind]
		if math.Abs(aggU-perU) > 6 {
			t.Errorf("%s: mean util aggregate %.2f%% vs per-record %.2f%%", kind, aggU, perU)
		}
	}
	// Offered volume is driven by the same pattern and Poisson sampler.
	ratio := float64(aggRes.Offered) / float64(perRes.Offered)
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("offered: aggregate %d vs per-record %d (ratio %.3f)", aggRes.Offered, perRes.Offered, ratio)
	}
	// Metered cost tracks the allocation trajectory, which should converge
	// to the same steady state under either path.
	costRatio := aggRes.TotalCost / perRes.TotalCost
	if costRatio < 0.85 || costRatio > 1.18 {
		t.Errorf("cost: aggregate %.4f vs per-record %.4f (ratio %.3f)", aggRes.TotalCost, perRes.TotalCost, costRatio)
	}
	if math.Abs(aggRes.ViolationRate-perRes.ViolationRate) > 0.12 {
		t.Errorf("violation rate: aggregate %.3f vs per-record %.3f", aggRes.ViolationRate, perRes.ViolationRate)
	}
}

func TestAggregateMatchesPerRecordStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a per-record simulation")
	}
	// A static flow isolates the substrates from controller feedback: the
	// utilisation means must line up tightly when nothing reacts.
	aggRes, perRes := runBoth(t, staticSpec(t), 20*time.Minute)

	for kind, perU := range perRes.MeanUtil {
		aggU := aggRes.MeanUtil[kind]
		if math.Abs(aggU-perU) > 3 {
			t.Errorf("%s: mean util aggregate %.2f%% vs per-record %.2f%%", kind, aggU, perU)
		}
	}
	if aggRes.Violations[flow.Ingestion] > 0 != (perRes.Violations[flow.Ingestion] > 0) {
		t.Errorf("ingestion violation presence differs: aggregate %d vs per-record %d",
			aggRes.Violations[flow.Ingestion], perRes.Violations[flow.Ingestion])
	}
}

func TestAggregateThrottlesLikePerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a per-record simulation")
	}
	// Offered load at 2x the static ingestion capacity: both paths must
	// throttle approximately half the records.
	aggRes, perRes := runBoth(t, overloadSpec(t), 10*time.Minute)

	aggFrac := float64(aggRes.Rejected) / float64(aggRes.Offered)
	perFrac := float64(perRes.Rejected) / float64(perRes.Offered)
	if aggFrac < 0.3 || perFrac < 0.3 {
		t.Fatalf("expected heavy throttling, got aggregate %.3f per-record %.3f", aggFrac, perFrac)
	}
	if math.Abs(aggFrac-perFrac) > 0.05 {
		t.Errorf("throttle fraction: aggregate %.3f vs per-record %.3f", aggFrac, perFrac)
	}
}
