package query

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metricstore"
	"repro/internal/timeseries"
)

// testSource builds a StaticSource of nFlows flows, each with a latency
// metric (values i, i+1, ... per second) and a vms metric (constant
// per-flow allocation), 600 points each ending at now.
func testSource(t testing.TB, nFlows int) (StaticSource, time.Time) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0).UTC()
	src := make(StaticSource, nFlows)
	for f := 0; f < nFlows; f++ {
		st := metricstore.NewStore()
		base := now.Add(-599 * time.Second)
		for i := 0; i < 600; i++ {
			ts := base.Add(time.Duration(i) * time.Second)
			storePut(st, "Analytics/Cluster", "RequestLatencyMs", map[string]string{"Cluster": "main"},
				ts, float64(100*(f+1)+i%10))
			storePut(st, "Analytics/Cluster", "AllocatedVMs", nil, ts, float64(f+2))
		}
		src[flowName(f)] = StaticFlow{Store: st, Now: now}
	}
	return src, now
}

func flowName(i int) string {
	return "web-" + string(rune('a'+i))
}

func mustRun(t *testing.T, src Source, q string) *Result {
	t.Helper()
	pl, err := Prepare(src, q, nil)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", q, err)
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	return res
}

func TestSelectWindowRaw(t *testing.T) {
	src, now := testSource(t, 2)
	res := mustRun(t, src, "select flow=web-a name=RequestLatencyMs | window 1m")
	if len(res.Series) != 1 {
		t.Fatalf("%d series, want 1", len(res.Series))
	}
	s := res.Series[0]
	if s.Flow != "web-a" || s.Namespace != "Analytics/Cluster" || s.Name != "RequestLatencyMs" {
		t.Fatalf("series identity %+v", s)
	}
	// Window [now-1m, now]: 61 one-second points.
	if len(s.Ts) != 61 {
		t.Fatalf("%d points, want 61", len(s.Ts))
	}
	if s.Ts[len(s.Ts)-1] != now.UnixNano() {
		t.Fatalf("last ts %d, want %d", s.Ts[len(s.Ts)-1], now.UnixNano())
	}
	if res.Rows != 61 {
		t.Fatalf("rows %d, want 61", res.Rows)
	}
}

func TestSelectGlobAndDims(t *testing.T) {
	src, _ := testSource(t, 3)
	res := mustRun(t, src, "select flow=web-* name=*Latency* dim.Cluster=main | window 1m")
	if len(res.Series) != 3 {
		t.Fatalf("%d series, want 3 (one latency per flow)", len(res.Series))
	}
	// A dimension that matches nothing selects nothing — empty result, no error.
	res = mustRun(t, src, "select flow=web-* name=*Latency* dim.Cluster=backup | window 1m")
	if len(res.Series) != 0 {
		t.Fatalf("%d series, want 0", len(res.Series))
	}
}

func TestFilterMapResample(t *testing.T) {
	src, _ := testSource(t, 1)
	// Latency values cycle 100..109; filter >= 105 keeps half, map doubles.
	res := mustRun(t, src, "select flow=web-a name=RequestLatencyMs | window 100s | filter v >= 105 | map v*2 | resample 10s max")
	if len(res.Series) != 1 {
		t.Fatalf("%d series, want 1", len(res.Series))
	}
	s := res.Series[0]
	if len(s.Ts) == 0 {
		t.Fatal("no buckets")
	}
	for i, v := range s.Vs {
		if v != 218 { // max of doubled 105..109 = 218
			t.Fatalf("bucket %d: max %v, want 218", i, v)
		}
		if s.Ts[i]%int64(10*time.Second) != 0 {
			t.Fatalf("bucket %d start %d not epoch-aligned", i, s.Ts[i])
		}
	}
}

func TestResampleP99MatchesScratchlessPercentile(t *testing.T) {
	src, now := testSource(t, 1)
	res := mustRun(t, src, "select flow=web-a name=RequestLatencyMs | window 100s | resample 20s p99")
	s := res.Series[0]
	if len(s.Ts) == 0 {
		t.Fatal("no buckets")
	}
	// Recompute one bucket naively.
	var f StaticFlow = src["web-a"]
	h, ok := f.Store.Lookup("Analytics/Cluster", "RequestLatencyMs", map[string]string{"Cluster": "main"})
	if !ok {
		t.Fatal("lookup failed")
	}
	w := h.Window(metricstore.WindowQuery{From: now.Add(-100 * time.Second), To: now.Add(time.Nanosecond)})
	ts, vs := w.ViewAll().CopyColumns(nil, nil)
	var bucket []float64
	for i := range ts {
		if timeseries.BucketStart(ts[i], 20*time.Second) == s.Ts[0] {
			bucket = append(bucket, vs[i])
		}
	}
	want := timeseries.Percentile(bucket, 99)
	if math.Float64bits(s.Vs[0]) != math.Float64bits(want) {
		t.Fatalf("p99 bucket %v, want %v", s.Vs[0], want)
	}
}

func TestAggFused(t *testing.T) {
	src, _ := testSource(t, 1)
	res := mustRun(t, src, "select flow=web-a name=AllocatedVMs | window 1m | agg sum")
	s := res.Series[0]
	if len(s.Ts) != 1 {
		t.Fatalf("%d points, want 1", len(s.Ts))
	}
	if s.Vs[0] != 61*2 { // 61 points of value 2
		t.Fatalf("sum %v, want %v", s.Vs[0], 61*2)
	}
}

func TestJoinExprAndBroadcast(t *testing.T) {
	src, _ := testSource(t, 2)
	// Per-flow join: latency p99 / allocated VMs.
	res := mustRun(t, src, "select flow=web-* name=RequestLatencyMs | window 1m | resample 10s p99 | join 10s l/r (select flow=web-* name=AllocatedVMs | resample 10s avg)")
	if len(res.Series) != 2 {
		t.Fatalf("%d joined series, want 2", len(res.Series))
	}
	for _, s := range res.Series {
		if s.Right != "Analytics/Cluster/AllocatedVMs" {
			t.Fatalf("right label %q", s.Right)
		}
		if len(s.Ts) == 0 || s.Vs2 != nil {
			t.Fatalf("expr join shape: %d pts, vs2=%v", len(s.Ts), s.Vs2)
		}
	}
	// web-a: p99 latency ≈ 109ish / 2 VMs; just sanity-check division happened.
	if res.Series[0].Vs[0] <= 0 || res.Series[0].Vs[0] >= res.Series[1].Vs[0]*10 {
		t.Fatalf("join values look wrong: %v vs %v", res.Series[0].Vs[0], res.Series[1].Vs[0])
	}

	// Broadcast: right side pinned to one flow matches every left series.
	res = mustRun(t, src, "select flow=web-* name=RequestLatencyMs | window 1m | resample 10s avg | join 10s l/r (select flow=web-a name=AllocatedVMs | resample 10s avg)")
	if len(res.Series) != 2 {
		t.Fatalf("broadcast: %d series, want 2", len(res.Series))
	}
}

func TestJoinDualColumn(t *testing.T) {
	src, _ := testSource(t, 1)
	res := mustRun(t, src, "select flow=web-a name=RequestLatencyMs | window 1m | resample 10s p99 | join 10s (select flow=web-a name=AllocatedVMs | resample 10s avg)")
	if len(res.Series) != 1 {
		t.Fatalf("%d series, want 1", len(res.Series))
	}
	s := res.Series[0]
	if len(s.Vs2) != len(s.Vs) || len(s.Vs) != len(s.Ts) {
		t.Fatalf("dual columns misaligned: %d/%d/%d", len(s.Ts), len(s.Vs), len(s.Vs2))
	}
	for _, v := range s.Vs2 {
		if v != 2 {
			t.Fatalf("right column %v, want 2", v)
		}
	}
}

func TestJoinAggFused(t *testing.T) {
	src, _ := testSource(t, 2)
	res := mustRun(t, src, "select flow=web-* name=RequestLatencyMs | window 1m | resample 10s avg | join 10s l/r (select flow=web-* name=AllocatedVMs | resample 10s avg) | agg avg")
	if len(res.Series) != 2 {
		t.Fatalf("%d series, want 2", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Ts) != 1 {
			t.Fatalf("fused agg left %d points", len(s.Ts))
		}
	}
}

func TestTopKAndLimit(t *testing.T) {
	src, _ := testSource(t, 3)
	// AllocatedVMs is f+2: web-c (4) > web-b (3) > web-a (2).
	res := mustRun(t, src, "select flow=web-* name=AllocatedVMs | window 1m | resample 10s avg | topk 2 | limit 3")
	if len(res.Series) != 2 {
		t.Fatalf("%d series, want 2", len(res.Series))
	}
	if res.Series[0].Flow != "web-c" || res.Series[1].Flow != "web-b" {
		t.Fatalf("topk order %s, %s", res.Series[0].Flow, res.Series[1].Flow)
	}
	for _, s := range res.Series {
		if len(s.Ts) != 3 {
			t.Fatalf("limit left %d points, want 3", len(s.Ts))
		}
	}
}

func TestJoinShortCircuit(t *testing.T) {
	src, _ := testSource(t, 2)
	// Right side matches nothing: inner join is empty regardless of left.
	res := mustRun(t, src, "select flow=web-* name=RequestLatencyMs | window 1m | join 10s l/r (select flow=web-* name=NoSuchMetric)")
	if len(res.Series) != 0 {
		t.Fatalf("%d series, want 0", len(res.Series))
	}
}

func TestExplain(t *testing.T) {
	src, _ := testSource(t, 2)
	pl, err := Prepare(src, "select flow=web-* name=RequestLatencyMs | window 1m | resample 10s p99 | join 10s l/r (select flow=web-a name=AllocatedVMs | resample 10s avg) | agg avg", nil)
	if err != nil {
		t.Fatal(err)
	}
	text := pl.Explain().Text()
	for _, want := range []string{
		"2 flows, 2 series",
		"[pushdown]",
		"View.Align",
		"evaluate right side first (1 ≤ 2 series)",
		"fused into the streaming pass",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain text missing %q:\n%s", want, text)
		}
	}
}

func TestMissingFlowIsEmptyNotError(t *testing.T) {
	src, _ := testSource(t, 1)
	res := mustRun(t, src, "select flow=nope-* name=RequestLatencyMs")
	if len(res.Series) != 0 || res.Rows != 0 {
		t.Fatalf("got %d series / %d rows, want empty", len(res.Series), res.Rows)
	}
}

func TestMaxSeriesLimit(t *testing.T) {
	now := time.Unix(1_700_000_000, 0).UTC()
	st := metricstore.NewStore()
	for i := 0; i < MaxSeries+1; i++ {
		storePut(st, "NS", "m", map[string]string{"i": string(rune('a' + i%26)), "j": string(rune('a' + i/26))}, now, 1)
	}
	src := StaticSource{"f": {Store: st, Now: now}}
	_, err := Prepare(src, "select flow=f ns=NS", nil)
	if err == nil || !strings.Contains(err.Error(), "series") {
		t.Fatalf("Prepare over-matching select = %v, want series-limit error", err)
	}
}
