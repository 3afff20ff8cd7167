package metricstore

import (
	"math"
	"testing"
	"time"

	"repro/internal/timeseries"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

func dims(kv ...string) map[string]string {
	m := make(map[string]string)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func TestMetricIDKeyCanonical(t *testing.T) {
	a := MetricID{Namespace: "ns", Name: "m", Dimensions: map[string]string{"b": "2", "a": "1"}}
	b := MetricID{Namespace: "ns", Name: "m", Dimensions: map[string]string{"a": "1", "b": "2"}}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ for equal dimension sets: %q vs %q", a.Key(), b.Key())
	}
	c := MetricID{Namespace: "ns", Name: "m", Dimensions: map[string]string{"a": "1"}}
	if a.Key() == c.Key() {
		t.Fatal("keys collide for different dimension sets")
	}
}

func TestPutAndLatest(t *testing.T) {
	s := NewStore()
	d := dims("StreamName", "clicks")
	storePut(s, "Ingestion", "IncomingRecords", d, t0, 100)
	storePut(s, "Ingestion", "IncomingRecords", d, t0.Add(time.Minute), 200)
	p, ok := storeLatest(s, "Ingestion", "IncomingRecords", d)
	if !ok || p.V != 200 {
		t.Fatalf("Latest = %+v ok=%v, want 200", p, ok)
	}
	if _, ok := storeLatest(s, "Ingestion", "IncomingRecords", dims("StreamName", "other")); ok {
		t.Fatal("Latest found metric under wrong dimensions")
	}
}

func TestPutValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.Handle("", "x", nil); err == nil {
		t.Fatal("empty namespace accepted")
	}
	if _, err := s.Handle("ns", "", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	h := s.MustHandle("ns", "m", nil)
	if err := h.Append(t0, 1); err != nil {
		t.Fatalf("valid append failed: %v", err)
	}
	if err := h.Append(t0.Add(-time.Second), 2); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestPutCopiesDimensions(t *testing.T) {
	s := NewStore()
	d := dims("k", "v")
	storePut(s, "ns", "m", d, t0, 1)
	d["k"] = "mutated"
	if _, ok := storeLatest(s, "ns", "m", dims("k", "v")); !ok {
		t.Fatal("store was affected by caller mutating the dimension map")
	}
}

// TestGetStatisticsPeriods: Handle.Window answers CloudWatch's
// GetStatistics shape — period buckets over [From, To).
func TestGetStatisticsPeriods(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		storePut(s, "ns", "cpu", nil, t0.Add(time.Duration(i)*30*time.Second), float64(i))
	}
	h, ok := s.Lookup("ns", "cpu", nil)
	if !ok {
		t.Fatal("published metric not found")
	}
	got := h.Window(WindowQuery{
		From: t0, To: t0.Add(5 * time.Minute),
		Period: time.Minute, Stat: timeseries.AggMean,
	})
	if got.Len() != 5 {
		t.Fatalf("stats len = %d, want 5", got.Len())
	}
	if v := got.At(0).V; math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("first bucket mean = %v, want 0.5", v)
	}
}

// TestGetStatisticsRawAndDefaults: a zero WindowQuery is the full raw
// series, and an unknown metric does not resolve.
func TestGetStatisticsRawAndDefaults(t *testing.T) {
	s := NewStore()
	storePut(s, "ns", "m", nil, t0, 1)
	storePut(s, "ns", "m", nil, t0.Add(time.Minute), 2)
	h, ok := s.Lookup("ns", "m", nil)
	if !ok {
		t.Fatal("published metric not found")
	}
	if got := h.Window(WindowQuery{}); got.Len() != 2 {
		t.Fatalf("raw len = %d, want 2 (zero To should include newest)", got.Len())
	}
	if _, ok := s.Lookup("ns", "absent", nil); ok {
		t.Fatal("missing metric was found")
	}
}

func TestRetention(t *testing.T) {
	s := NewStore()
	s.SetRetention(2 * time.Minute)
	for i := 0; i < 10; i++ {
		storePut(s, "ns", "m", nil, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	raw := storeRaw(s, "ns", "m", nil)
	if raw.Len() != 3 { // minutes 7, 8, 9 (cutoff is inclusive of t-2m)
		t.Fatalf("retained %d points, want 3", raw.Len())
	}
	if raw.At(0).V != 7 {
		t.Fatalf("oldest retained value = %v, want 7", raw.At(0).V)
	}
}

// TestHandleAppendSteadyStateAllocs pins the hot write at zero
// allocations: a series warmed past its growth phase under a 10-minute
// retention window, so every append is lock + column write + retention
// drop + telemetry. Query-plane reads share the entry lock with this
// path, so the budget also guards against read-side changes pushing
// allocations into the writer. It holds for each value encoding: a
// changing series (explicit values), a constant one (one run) and a
// piecewise-constant one (runs that start, get dropped and compacted).
func TestHandleAppendSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		value func(i int) float64
	}{
		{"changing", func(i int) float64 { return float64(i) }},
		{"constant", func(int) float64 { return 100 }},
		{"piecewise", func(i int) float64 { return float64(i / 45 % 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore()
			s.SetRetention(10 * time.Minute)
			h := s.MustHandle("Ingestion/Stream", "IncomingRecords", dims("StreamName", "bench", "Shard", "s-01"))
			i := 0
			appendNext := func() {
				h.MustAppend(t0.Add(time.Duration(i)*time.Second), tc.value(i))
				i++
			}
			for i < 2048 { // > retention at 1 Hz: pruning is in steady state
				appendNext()
			}
			if allocs := testing.AllocsPerRun(1000, appendNext); allocs != 0 {
				t.Fatalf("steady-state Handle.Append allocated %.1f/op, want 0", allocs)
			}
		})
	}
}

func TestListMetricsAndNamespaces(t *testing.T) {
	s := NewStore()
	storePut(s, "B", "m2", nil, t0, 1)
	storePut(s, "A", "m1", dims("d", "1"), t0, 1)
	storePut(s, "A", "m1", dims("d", "2"), t0, 1)
	all := s.ListMetrics("")
	if len(all) != 3 {
		t.Fatalf("ListMetrics(\"\") len = %d, want 3", len(all))
	}
	onlyA := s.ListMetrics("A")
	if len(onlyA) != 2 {
		t.Fatalf("ListMetrics(A) len = %d, want 2", len(onlyA))
	}
	ns := s.Namespaces()
	if len(ns) != 2 || ns[0] != "A" || ns[1] != "B" {
		t.Fatalf("Namespaces = %v", ns)
	}
}

func TestRawIsACopy(t *testing.T) {
	s := NewStore()
	storePut(s, "ns", "m", nil, t0, 1)
	raw := storeRaw(s, "ns", "m", nil)
	raw.MustAppend(t0.Add(time.Hour), 99)
	if got := storeRaw(s, "ns", "m", nil).Len(); got != 1 {
		t.Fatalf("store series length changed to %d after mutating Raw copy", got)
	}
	if storeRaw(s, "ns", "absent", nil) != nil {
		t.Fatal("Raw for absent metric should be nil")
	}
}

func TestAlarmLifecycle(t *testing.T) {
	s := NewStore()
	a := &Alarm{
		Name: "high-cpu", Namespace: "ns", Metric: "cpu",
		Period: time.Minute, Stat: timeseries.AggMean,
		Threshold: 70, Compare: GreaterThan, EvalPeriods: 2,
	}
	if err := s.PutAlarm(a); err != nil {
		t.Fatal(err)
	}

	// No data yet: insufficient.
	if st := s.EvaluateAlarm(a, t0); st != StateInsufficient {
		t.Fatalf("state = %v, want INSUFFICIENT", st)
	}

	// Two minutes below threshold: OK.
	storePut(s, "ns", "cpu", nil, t0.Add(30*time.Second), 50)
	storePut(s, "ns", "cpu", nil, t0.Add(90*time.Second), 55)
	if st := s.EvaluateAlarm(a, t0.Add(2*time.Minute)); st != StateOK {
		t.Fatalf("state = %v, want OK", st)
	}

	// One breaching minute is not enough (EvalPeriods=2).
	storePut(s, "ns", "cpu", nil, t0.Add(150*time.Second), 90)
	if st := s.EvaluateAlarm(a, t0.Add(3*time.Minute)); st != StateOK {
		t.Fatalf("state = %v, want OK after single breach", st)
	}

	// Two consecutive breaching minutes: ALARM.
	storePut(s, "ns", "cpu", nil, t0.Add(210*time.Second), 95)
	if st := s.EvaluateAlarm(a, t0.Add(4*time.Minute)); st != StateAlarm {
		t.Fatalf("state = %v, want ALARM", st)
	}
	if a.State() != StateAlarm {
		t.Fatalf("State() = %v, want ALARM", a.State())
	}
	if a.Transitions() < 2 {
		t.Fatalf("Transitions() = %d, want >= 2", a.Transitions())
	}
}

func TestEvaluateAlarms(t *testing.T) {
	s := NewStore()
	mk := func(name string, threshold float64) *Alarm {
		return &Alarm{
			Name: name, Namespace: "ns", Metric: "m",
			Period: time.Minute, Stat: timeseries.AggMean,
			Threshold: threshold, Compare: GreaterThan, EvalPeriods: 1,
		}
	}
	if err := s.PutAlarm(mk("b-high", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAlarm(mk("a-low", 10)); err != nil {
		t.Fatal(err)
	}
	storePut(s, "ns", "m", nil, t0.Add(30*time.Second), 50)
	firing := s.EvaluateAlarms(t0.Add(time.Minute))
	if len(firing) != 1 || firing[0] != "a-low" {
		t.Fatalf("firing = %v, want [a-low]", firing)
	}
}

func TestPutAlarmValidation(t *testing.T) {
	s := NewStore()
	if err := s.PutAlarm(&Alarm{Name: "", Period: time.Minute}); err == nil {
		t.Fatal("nameless alarm accepted")
	}
	if err := s.PutAlarm(&Alarm{Name: "x"}); err == nil {
		t.Fatal("zero-period alarm accepted")
	}
	a := &Alarm{Name: "x", Namespace: "ns", Metric: "m", Period: time.Minute}
	if err := s.PutAlarm(a); err != nil {
		t.Fatal(err)
	}
	if a.EvalPeriods != 1 {
		t.Fatalf("EvalPeriods defaulted to %d, want 1", a.EvalPeriods)
	}
	got, ok := s.Alarm("x")
	if !ok || got != a {
		t.Fatal("Alarm lookup failed")
	}
}

func TestComparisonOperators(t *testing.T) {
	cases := []struct {
		c    Comparison
		v    float64
		want bool
	}{
		{GreaterThan, 71, true}, {GreaterThan, 70, false},
		{GreaterOrEqual, 70, true}, {GreaterOrEqual, 69, false},
		{LessThan, 69, true}, {LessThan, 70, false},
		{LessOrEqual, 70, true}, {LessOrEqual, 71, false},
	}
	for _, tc := range cases {
		if got := tc.c.breaches(tc.v, 70); got != tc.want {
			t.Errorf("%v %v 70: got %v, want %v", tc.v, tc.c, got, tc.want)
		}
	}
	if GreaterThan.String() != ">" || LessOrEqual.String() != "<=" {
		t.Error("Comparison.String mismatch")
	}
	if StateAlarm.String() != "ALARM" || StateOK.String() != "OK" {
		t.Error("AlarmState.String mismatch")
	}
}
