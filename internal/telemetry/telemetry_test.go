package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatal("Counter is not get-or-create")
	}
	g := r.Gauge("inflight", "in flight")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestVecInternsChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_requests_total", "by route", "route", "code")
	a := v.With("/v1/flows", "200")
	b := v.With("/v1/flows", "200")
	if a != b {
		t.Fatal("same label values returned different children")
	}
	v.With("/v1/flows", "500").Add(2)
	a.Inc()
	snap := r.Snapshot()
	fam := snap.Find("http_requests_total")
	if fam == nil || len(fam.Metrics) != 2 {
		t.Fatalf("family = %+v, want 2 children", fam)
	}
}

// TestHotPathAllocs pins the instruments at zero allocations per
// operation. The write side rides inside Handle.Append, scheduler ticks
// and the HTTP middleware; the read side backs every scrape.
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	v := r.CounterVec("v_total", "", "route", "method", "code")
	v.With("/v1/flows/{id}/metrics", "GET", "200") // intern: steady state is a read-locked map hit
	h := r.Histogram("h_seconds", "", nil)
	tr := NewTracer()
	tr.SetEvery(1 << 30) // the common case every flow advance pays: not sampled
	var sink uint64
	var i int
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"counter_inc", func() { c.Inc() }},
		{"counter_read", func() { sink += c.Value() }},
		{"vec_with_inc", func() { v.With("/v1/flows/{id}/metrics", "GET", "200").Inc() }},
		{"histogram_observe", func() { i++; h.Observe(time.Duration(i%1000) * time.Microsecond) }},
		{"tracer_begin_unsampled", func() { tr.Abandon(tr.Begin("f")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(1000, tc.op); allocs != 0 {
				t.Errorf("%.1f allocs/op, want 0", allocs)
			}
		})
	}
}

func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("x", "y")
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (le is inclusive)
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // overflow
	snap := r.Snapshot().Find("lat").Metrics[0].Histogram
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	if snap.MaxNanos != int64(time.Second) {
		t.Fatalf("max = %d, want 1s", snap.MaxNanos)
	}
	if mean := snap.Mean(); mean <= 0 || mean > time.Second {
		t.Fatalf("mean = %v out of range", mean)
	}
}

func TestGaugeFuncSums(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("workers", "", func() int64 { return 3 })
	r.GaugeFunc("workers", "", func() int64 { return 4 })
	fam := r.Snapshot().Find("workers")
	if len(fam.Metrics) != 1 || fam.Metrics[0].Value != 7 {
		t.Fatalf("gauge funcs = %+v, want one metric of 7", fam.Metrics)
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", "")
	r.Counter("aaa", "")
	r.Counter("mmm", "")
	snap := r.Snapshot()
	var names []string
	for _, f := range snap.Families {
		names = append(names, f.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("families not sorted: %v", names)
		}
	}
	if snap.At.IsZero() {
		t.Fatal("snapshot has zero timestamp")
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("flows_total", "flows created").Add(3)
	r.CounterVec("http_requests_total", "", "route", "code").With(`a"b\c`, "200").Inc()
	h := r.Histogram("req_seconds", "latency", []time.Duration{time.Millisecond})
	h.Observe(500 * time.Microsecond)
	h.Observe(time.Second)

	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wants := []string{
		"# HELP flows_total flows created",
		"# TYPE flows_total counter",
		"flows_total 3",
		`http_requests_total{route="a\"b\\c",code="200"} 1`,
		"# TYPE req_seconds histogram",
		`req_seconds_bucket{le="0.001"} 1`,
		`req_seconds_bucket{le="+Inf"} 2`,
		"req_seconds_count 2",
		"req_seconds_sum 1.0005",
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentInstrumentsRaceClean(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c", "", "k")
	h := r.Histogram("h", "", nil)
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []string{"a", "b", "c"}
			for n := 0; n < 500; n++ {
				v.With(keys[n%3]).Inc()
				h.Observe(time.Duration(n) * time.Microsecond)
				g.Add(1)
				if n%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	var sum uint64
	for _, m := range r.Snapshot().Find("c").Metrics {
		sum += uint64(m.Value)
	}
	if sum != 8*500 {
		t.Fatalf("counter sum = %d, want %d", sum, 8*500)
	}
	if h.Count() != 8*500 {
		t.Fatalf("hist count = %d, want %d", h.Count(), 8*500)
	}
}

func TestTracerSamplingAndLifecycle(t *testing.T) {
	tr := NewTracer()
	tr.SetEvery(1) // sample everything

	tc := tr.Begin("flow-1")
	if tc == nil {
		t.Fatal("Begin with every=1 returned nil")
	}
	if tr.Active() != tc {
		t.Fatal("Active != begun trace")
	}
	tc.Mark(StageSchedFire)
	tc.Mark(StageController)
	tr.Active().AddAppend(1234)
	tr.Publish(tc, 42)
	if tr.Active() != nil {
		t.Fatal("Active not cleared after Publish")
	}

	// Wrong seq does not deliver.
	tr.MarkDelivered(41)
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("trace finalized on wrong seq: %d snapshots", n)
	}
	tr.MarkDelivered(42)
	snaps := tr.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if !s.Delivered || s.EventSeq != 42 || s.FlowID != "flow-1" {
		t.Fatalf("snapshot = %+v", s)
	}
	stageNames := map[string]bool{}
	for _, st := range s.Stages {
		stageNames[st.Name] = true
	}
	for _, want := range []string{StageSchedFire, StageController, StagePublish, StageDelivery, StageAppend} {
		if !stageNames[want] {
			t.Fatalf("missing stage %s in %+v", want, s.Stages)
		}
	}
	if s.AppendCount != 1 {
		t.Fatalf("append count = %d, want 1", s.AppendCount)
	}
}

func TestTracerStalePendingFinalizedUndelivered(t *testing.T) {
	tr := NewTracer()
	tr.SetEvery(1)
	a := tr.Begin("a")
	tr.Publish(a, 1)
	// Next sampled Begin evicts the stale pending trace as undelivered.
	b := tr.Begin("b")
	if b == nil {
		t.Fatal("second Begin returned nil")
	}
	snaps := tr.Snapshot()
	if len(snaps) != 1 || snaps[0].FlowID != "a" || snaps[0].Delivered {
		t.Fatalf("stale pending not finalized undelivered: %+v", snaps)
	}
	tr.Abandon(b)
	if len(tr.Snapshot()) != 2 {
		t.Fatal("Abandon did not finalize")
	}
}

func TestTracerSamplingRate(t *testing.T) {
	tr := NewTracer()
	tr.SetEvery(10)
	sampled := 0
	for i := 0; i < 100; i++ {
		if tc := tr.Begin("f"); tc != nil {
			sampled++
			tr.Abandon(tc)
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 100 with every=10", sampled)
	}
	tr.SetEvery(0)
	if tr.Begin("f") != nil {
		t.Fatal("Begin with every=0 sampled")
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer()
	tr.SetEvery(1)
	for i := 0; i < traceRingSize*2; i++ {
		tr.Abandon(tr.Begin("f"))
	}
	snaps := tr.Snapshot()
	if len(snaps) != traceRingSize {
		t.Fatalf("ring holds %d, want %d", len(snaps), traceRingSize)
	}
	// Newest first.
	if snaps[0].ID < snaps[len(snaps)-1].ID {
		t.Fatalf("snapshot not newest-first: %d .. %d", snaps[0].ID, snaps[len(snaps)-1].ID)
	}
}

func TestNilTraceMethodsNoop(t *testing.T) {
	var tc *Trace
	tc.Mark("x")
	tc.AddAppend(1)
	tr := NewTracer()
	tr.Publish(nil, 1)
	tr.Abandon(nil)
}

func TestSinceNanos(t *testing.T) {
	start := Now()
	if d := SinceNanos(start); d < 0 {
		t.Fatalf("SinceNanos went backwards: %d", d)
	}
}
