package deps

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metricstore"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

// seedStore populates a store with a synthetic Fig.-2-like pair: ingestion
// input records driving analytics CPU linearly (cpu = slope·in + off +
// noise), with an optional lag in minutes.
func seedStore(t *testing.T, minutes, lag int, slope, off, noiseStd float64) *metricstore.Store {
	t.Helper()
	ms := metricstore.NewStore()
	rng := rand.New(rand.NewSource(11))
	rates := make([]float64, minutes)
	for i := range rates {
		rates[i] = 2000 + 1500*math.Sin(float64(i)/40) + rng.NormFloat64()*50
	}
	for i := 0; i < minutes; i++ {
		now := t0.Add(time.Duration(i) * time.Minute)
		storePut(ms, "Ingestion/Stream", "IncomingRecords", nil, now, rates[i])
		src := rates[0]
		if i >= lag {
			src = rates[i-lag]
		}
		cpu := slope*src + off + rng.NormFloat64()*noiseStd
		storePut(ms, "Analytics/Compute", "CPUUtilization", nil, now, cpu)
	}
	return ms
}

func refs() (MetricRef, MetricRef) {
	from := MetricRef{Layer: Ingestion, Namespace: "Ingestion/Stream", Name: "IncomingRecords"}
	to := MetricRef{Layer: Analytics, Namespace: "Analytics/Compute", Name: "CPUUtilization"}
	return from, to
}

func TestAnalyzeRecoversLinearDependency(t *testing.T) {
	ms := seedStore(t, 550, 0, 0.01, 4.8, 0.8)
	a := &Analyzer{Store: ms}
	from, to := refs()
	d, err := a.Analyze(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if d.Correlation < 0.95 {
		t.Fatalf("correlation = %v, want >= 0.95 (the paper's Fig. 2 coefficient)", d.Correlation)
	}
	if math.Abs(d.Model.Slope-0.01) > 0.002 {
		t.Fatalf("slope = %v, want ≈0.01", d.Model.Slope)
	}
	if math.Abs(d.Model.Intercept-4.8) > 2 {
		t.Fatalf("intercept = %v, want ≈4.8", d.Model.Intercept)
	}
	if d.Lag != 0 {
		t.Fatalf("lag = %d, want 0", d.Lag)
	}
	if d.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestAnalyzeDetectsLag(t *testing.T) {
	ms := seedStore(t, 550, 3, 0.01, 4.8, 0.3)
	a := &Analyzer{Store: ms, MaxLag: 6}
	from, to := refs()
	d, err := a.Analyze(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if d.Lag != 3 {
		t.Fatalf("lag = %d, want 3", d.Lag)
	}
	if d.Correlation < 0.95 {
		t.Fatalf("correlation at lag = %v, want >= 0.95", d.Correlation)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	a := &Analyzer{}
	from, to := refs()
	if _, err := a.Analyze(from, to); err == nil {
		t.Fatal("nil store accepted")
	}
	ms := metricstore.NewStore()
	a = &Analyzer{Store: ms}
	if _, err := a.Analyze(from, to); err == nil {
		t.Fatal("missing metrics accepted")
	}
	// Too few samples.
	storePut(ms, from.Namespace, from.Name, nil, t0, 1)
	storePut(ms, to.Namespace, to.Name, nil, t0, 1)
	if _, err := a.Analyze(from, to); err == nil {
		t.Fatal("insufficient samples accepted")
	}
}

func TestAnalyzeAllFiltersWeakAndSameLayer(t *testing.T) {
	ms := seedStore(t, 300, 0, 0.01, 4.8, 0.5)
	// Add an uncorrelated storage metric — the paper "witnessed no
	// correlation between the write capacity in Kinesis and write capacity
	// in DynamoDB".
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		storePut(ms, "Storage/KVStore", "ConsumedWriteCapacityUnits", nil,
			t0.Add(time.Duration(i)*time.Minute), rng.Float64()*100)
	}
	from, to := refs()
	storageRef := MetricRef{Layer: Storage, Namespace: "Storage/KVStore", Name: "ConsumedWriteCapacityUnits"}
	a := &Analyzer{Store: ms, MinCorrelation: 0.7}
	found, err := a.AnalyzeAll([]MetricRef{from, to, storageRef})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range found {
		if d.From.Layer == d.To.Layer {
			t.Fatalf("same-layer dependency reported: %s", d)
		}
		if (d.From.Name == storageRef.Name || d.To.Name == storageRef.Name) && math.Abs(d.Correlation) < 0.7 {
			t.Fatalf("weak dependency reported: %s", d)
		}
	}
	// The strong ingestion→analytics pair must be present and first.
	if len(found) == 0 {
		t.Fatal("no dependencies found")
	}
	if found[0].From.Layer != Ingestion || found[0].To.Layer != Analytics {
		// The reverse direction is equally correlated; accept either order
		// as long as it is the ingestion↔analytics pair.
		if found[0].From.Layer != Analytics || found[0].To.Layer != Ingestion {
			t.Fatalf("strongest dependency is %s, want ingestion↔analytics", found[0])
		}
	}
	// No dependency involving the random storage metric should appear.
	for _, d := range found {
		if d.From.Name == storageRef.Name || d.To.Name == storageRef.Name {
			t.Fatalf("uncorrelated storage metric reported as dependent: %s", d)
		}
	}
}

func TestMetricRefString(t *testing.T) {
	r := MetricRef{Layer: Ingestion, Namespace: "ns", Name: "m"}
	if r.String() != "ingestion:ns/m" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestDependencyPredictSupportsEq2Reasoning(t *testing.T) {
	// §3.1: "how much CPU we require in the analytics layer to support the
	// maximum write capacity of a Kinesis Shard ... 1,000 records/second".
	ms := seedStore(t, 400, 0, 0.01, 4.8, 0.5)
	a := &Analyzer{Store: ms}
	from, to := refs()
	d, err := a.Analyze(from, to)
	if err != nil {
		t.Fatal(err)
	}
	cpuAtShardMax := d.Model.Predict(1000)
	if math.Abs(cpuAtShardMax-(0.01*1000+4.8)) > 2 {
		t.Fatalf("Predict(1000) = %v, want ≈14.8", cpuAtShardMax)
	}
}
