package compute

import (
	"math"
	"testing"
	"time"

	"repro/internal/metricstore"
	"repro/internal/stream"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

func topo() Topology {
	return Topology{
		Name: "clickstream",
		Stages: []Stage{
			{Name: "parse", CostMs: 0.2, Selectivity: 1.0},
			{Name: "sessionize", CostMs: 0.5, Selectivity: 1.0},
			{Name: "aggregate", CostMs: 0.3, Selectivity: 0.1},
		},
	}
}

func cfg() Config {
	return Config{
		Topology:           topo(),
		VMCapacityMsPerSec: 1000,
		InitialVMs:         2,
		MinVMs:             1,
		MaxVMs:             20,
	}
}

func mustCluster(t *testing.T, c Config, src Source, sink Sink, ms *metricstore.Store) *Cluster {
	t.Helper()
	cl, err := NewCluster(c, src, sink, ms)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{}).Validate(); err == nil {
		t.Fatal("empty topology accepted")
	}
	if err := (Topology{Name: "t"}).Validate(); err == nil {
		t.Fatal("stage-less topology accepted")
	}
	bad := Topology{Name: "t", Stages: []Stage{{Name: "s", CostMs: -1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative cost accepted")
	}
	if err := topo().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyCostAndSelectivity(t *testing.T) {
	tp := topo()
	// parse 0.2 + sessionize 0.5 (selectivity 1 upstream) + aggregate 0.3.
	if got := tp.CostPerTupleMs(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("CostPerTupleMs = %v, want 1.0", got)
	}
	if got := tp.OutputSelectivity(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("OutputSelectivity = %v, want 0.1", got)
	}

	// Fan-out then reduce: second stage runs 3 tuples per input.
	fan := Topology{Name: "f", Stages: []Stage{
		{Name: "split", CostMs: 1, Selectivity: 3},
		{Name: "count", CostMs: 2, Selectivity: 0.5},
	}}
	if got := fan.CostPerTupleMs(); math.Abs(got-7) > 1e-12 { // 1 + 3*2
		t.Fatalf("fan cost = %v, want 7", got)
	}
	if got := fan.OutputSelectivity(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("fan selectivity = %v, want 1.5", got)
	}
}

func TestNewClusterValidation(t *testing.T) {
	c := cfg()
	c.VMCapacityMsPerSec = 0
	if _, err := NewCluster(c, nil, nil, nil); err == nil {
		t.Fatal("zero capacity accepted")
	}
	c = cfg()
	c.InitialVMs = 0
	if _, err := NewCluster(c, nil, nil, nil); err == nil {
		t.Fatal("zero VMs accepted")
	}
	c = cfg()
	c.MinVMs, c.MaxVMs = 5, 2
	if _, err := NewCluster(c, nil, nil, nil); err == nil {
		t.Fatal("min>max accepted")
	}
	c = cfg()
	c.InitialVMs = 30 // above MaxVMs
	if _, err := NewCluster(c, nil, nil, nil); err == nil {
		t.Fatal("InitialVMs above max accepted")
	}
}

func TestUtilizationProportionalToLoad(t *testing.T) {
	// 2 VMs * 1000 ms/s = 2000 ms budget per 1s tick; cost 1 ms/tuple.
	cl := mustCluster(t, cfg(), nil, nil, nil)
	cl.InjectTuples(500) // 25% of 2000-tuple capacity
	cl.Tick(t0, time.Second)
	if got := cl.LastUtilization(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("util = %v, want 25", got)
	}
	cl.InjectTuples(1000)
	cl.Tick(t0.Add(time.Second), time.Second)
	if got := cl.LastUtilization(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("util = %v, want 50", got)
	}
}

func TestSaturationQueuesAndReports100(t *testing.T) {
	cl := mustCluster(t, cfg(), nil, nil, nil)
	cl.InjectTuples(5000) // capacity 2000/tick
	cl.Tick(t0, time.Second)
	if got := cl.LastUtilization(); got != 100 {
		t.Fatalf("util = %v, want 100", got)
	}
	if got := cl.PendingTuples(); got != 3000 {
		t.Fatalf("pending = %d, want 3000", got)
	}
	// Backlog drains over following quiet ticks.
	cl.Tick(t0.Add(time.Second), time.Second)
	if got := cl.PendingTuples(); got != 1000 {
		t.Fatalf("pending after drain tick = %d, want 1000", got)
	}
}

func TestQueueCapSheds(t *testing.T) {
	c := cfg()
	c.MaxQueue = 100
	cl := mustCluster(t, c, nil, nil, nil)
	cl.InjectTuples(500)
	if cl.PendingTuples() != 100 {
		t.Fatalf("pending = %d, want 100", cl.PendingTuples())
	}
	if cl.ShedTuples() != 400 {
		t.Fatalf("shed = %d, want 400", cl.ShedTuples())
	}
}

func TestSetVMCountClampsAndScalesCapacity(t *testing.T) {
	cl := mustCluster(t, cfg(), nil, nil, nil)
	if err := cl.SetVMCount(t0, 100); err != nil {
		t.Fatal(err)
	}
	if cl.VMCount() != 20 {
		t.Fatalf("VMCount = %d, want clamp to 20", cl.VMCount())
	}
	if err := cl.SetVMCount(t0, 0); err != nil {
		t.Fatal(err)
	}
	if cl.VMCount() != 1 {
		t.Fatalf("VMCount = %d, want clamp to 1", cl.VMCount())
	}
	cl.SetVMCount(t0, 4)
	cl.InjectTuples(2000) // 4 VMs → 4000 ms budget → all processed
	cl.Tick(t0, time.Second)
	if got := cl.LastUtilization(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("util with 4 VMs = %v, want 50", got)
	}
}

func TestProvisionDelayDefersResize(t *testing.T) {
	c := cfg()
	c.ProvisionDelay = 2 * time.Minute
	cl := mustCluster(t, c, nil, nil, nil)
	cl.SetVMCount(t0, 10)
	if cl.VMCount() != 2 {
		t.Fatalf("VMCount = %d immediately after delayed resize, want 2", cl.VMCount())
	}
	cl.Tick(t0.Add(time.Minute), time.Minute)
	if cl.VMCount() != 2 {
		t.Fatalf("VMCount = %d before delay elapsed, want 2", cl.VMCount())
	}
	cl.Tick(t0.Add(2*time.Minute), time.Minute)
	if cl.VMCount() != 10 {
		t.Fatalf("VMCount = %d after delay elapsed, want 10", cl.VMCount())
	}
}

func TestSinkReceivesSelectedOutput(t *testing.T) {
	var emitted int
	sink := SinkFunc(func(_ time.Time, n, _ int) { emitted += n })
	cl := mustCluster(t, cfg(), nil, sink, nil)
	cl.InjectTuples(1000)
	cl.Tick(t0, time.Second)
	if emitted != 100 { // selectivity 0.1
		t.Fatalf("emitted = %d, want 100", emitted)
	}
}

func TestStreamSourceIntegration(t *testing.T) {
	ms := metricstore.NewStore()
	st, err := stream.New("clicks", 2, ms)
	if err != nil {
		t.Fatal(err)
	}
	cl := mustCluster(t, cfg(), StreamSource{Stream: st}, nil, ms)
	for i := 0; i < 600; i++ {
		if err := st.PutRecord(uint64(i%26)<<59, 1); err != nil {
			t.Fatal(err)
		}
	}
	cl.Tick(t0, time.Second)
	if st.BacklogRecords() != 0 {
		t.Fatalf("stream backlog = %d after cluster tick, want 0", st.BacklogRecords())
	}
	if got := cl.LastUtilization(); math.Abs(got-30) > 1e-9 { // 600/2000
		t.Fatalf("util = %v, want 30", got)
	}
}

func TestMetricsPublished(t *testing.T) {
	ms := metricstore.NewStore()
	cl := mustCluster(t, cfg(), nil, nil, ms)
	cl.InjectTuples(1000)
	cl.Tick(t0, time.Second)
	d := map[string]string{"Topology": "clickstream"}
	cpu, ok := storeLatest(ms, Namespace, MetricCPUUtilization, d)
	if !ok || math.Abs(cpu.V-50) > 1e-9 {
		t.Fatalf("CPU metric = %+v ok=%v, want 50", cpu, ok)
	}
	proc, _ := storeLatest(ms, Namespace, MetricProcessedTuples, d)
	if proc.V != 1000 {
		t.Fatalf("ProcessedTuples = %v, want 1000", proc.V)
	}
	vm, _ := storeLatest(ms, Namespace, MetricVMCount, d)
	if vm.V != 2 {
		t.Fatalf("VMCount metric = %v, want 2", vm.V)
	}
	lat, _ := storeLatest(ms, Namespace, MetricLatencyMs, d)
	if lat.V <= 0 {
		t.Fatalf("latency = %v, want positive", lat.V)
	}
}

func TestCPUNoiseIsBoundedAndDeterministic(t *testing.T) {
	run := func(seed int64) []float64 {
		ms := metricstore.NewStore()
		c := cfg()
		c.CPUNoiseStd = 2
		c.Seed = seed
		cl := mustCluster(t, c, nil, nil, ms)
		var out []float64
		for i := 0; i < 50; i++ {
			cl.InjectTuples(1000)
			cl.Tick(t0.Add(time.Duration(i)*time.Second), time.Second)
			p, _ := storeLatest(ms, Namespace, MetricCPUUtilization, map[string]string{"Topology": "clickstream"})
			out = append(out, p.V)
		}
		return out
	}
	a := run(7)
	b := run(7)
	differs := false
	for i := range a {
		if a[i] < 0 || a[i] > 100 {
			t.Fatalf("noisy CPU %v out of [0,100]", a[i])
		}
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if math.Abs(a[i]-50) > 1e-9 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("noise had no effect")
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	cl := mustCluster(t, cfg(), nil, nil, metricstore.NewStore())
	getLatency := func(load int) float64 {
		ms := metricstore.NewStore()
		cl = mustCluster(t, cfg(), nil, nil, ms)
		cl.InjectTuples(load)
		cl.Tick(t0, time.Second)
		p, _ := storeLatest(ms, Namespace, MetricLatencyMs, map[string]string{"Topology": "clickstream"})
		return p.V
	}
	low := getLatency(200)
	mid := getLatency(1500)
	high := getLatency(4000)
	if !(low < mid && mid < high) {
		t.Fatalf("latency not increasing with load: %v %v %v", low, mid, high)
	}
}

func TestBaseCPUFloor(t *testing.T) {
	c := cfg()
	c.BaseCPUPct = 4.8
	cl := mustCluster(t, c, nil, nil, nil)
	// Idle tick: utilisation is the floor, not zero.
	cl.Tick(t0, time.Second)
	if got := cl.LastUtilization(); math.Abs(got-4.8) > 1e-9 {
		t.Fatalf("idle util = %v, want 4.8 floor", got)
	}
	// Load adds on top of the floor.
	cl.InjectTuples(500) // 25% of capacity
	cl.Tick(t0.Add(time.Second), time.Second)
	if got := cl.LastUtilization(); math.Abs(got-29.8) > 1e-9 {
		t.Fatalf("loaded util = %v, want 29.8", got)
	}
	// Saturation still reports 100.
	cl.InjectTuples(50000)
	cl.Tick(t0.Add(2*time.Second), time.Second)
	if got := cl.LastUtilization(); got != 100 {
		t.Fatalf("saturated util = %v, want 100", got)
	}
}
