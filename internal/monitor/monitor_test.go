package monitor

import (
	"bytes"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/metricstore"
	"repro/internal/timeseries"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

func seeded() *metricstore.Store {
	ms := metricstore.NewStore()
	for i := 0; i < 30; i++ {
		now := t0.Add(time.Duration(i) * time.Minute)
		storePut(ms, "Ingestion/Stream", "IncomingRecords", map[string]string{"StreamName": "c"}, now, float64(100+i*10))
		storePut(ms, "Analytics/Compute", "CPUUtilization", map[string]string{"Topology": "c"}, now, float64(20+i))
		storePut(ms, "Storage/KVStore", "ConsumedWriteCapacityUnits", map[string]string{"TableName": "c"}, now, float64(50))
	}
	return ms
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline width = %d, want 8", utf8.RuneCountInString(s))
	}
	if !strings.HasPrefix(s, "▁") || !strings.HasSuffix(s, "█") {
		t.Fatalf("sparkline %q should rise from ▁ to █", s)
	}
	// Flat data renders at the floor without NaN issues.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
	if Sparkline(nil, 8) != "" {
		t.Fatal("empty input should render empty")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Fatal("zero width should render empty")
	}
	// Downsampling long input to narrow width.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	narrow := Sparkline(long, 10)
	if utf8.RuneCountInString(narrow) != 10 {
		t.Fatalf("downsampled width = %d, want 10", utf8.RuneCountInString(narrow))
	}
}

func TestCollectGroupsByNamespace(t *testing.T) {
	ms := seeded()
	now := t0.Add(30 * time.Minute)
	snap := Collect(ms, now, time.Hour)
	if len(snap.Sections) != 3 {
		t.Fatalf("sections = %d, want 3", len(snap.Sections))
	}
	// Sorted namespaces.
	if snap.Sections[0].Namespace != "Analytics/Compute" ||
		snap.Sections[1].Namespace != "Ingestion/Stream" ||
		snap.Sections[2].Namespace != "Storage/KVStore" {
		t.Fatalf("section order wrong: %v", snap.Sections)
	}
	cpu := snap.Sections[0].Metrics[0]
	if cpu.Last != 49 {
		t.Fatalf("CPU last = %v, want 49", cpu.Last)
	}
	if cpu.Min != 20 || cpu.Max != 49 {
		t.Fatalf("CPU min/max = %v/%v", cpu.Min, cpu.Max)
	}
	if cpu.Spark == "" {
		t.Fatal("missing sparkline")
	}
}

func TestCollectWindowLimitsData(t *testing.T) {
	ms := seeded()
	now := t0.Add(30 * time.Minute)
	snap := Collect(ms, now, 5*time.Minute)
	cpu := snap.Sections[0].Metrics[0]
	if cpu.Points > 6 {
		t.Fatalf("window of 5m included %d points", cpu.Points)
	}
	// A window before all data yields no sections.
	empty := Collect(ms, t0.Add(-time.Hour), time.Minute)
	if len(empty.Sections) != 0 {
		t.Fatalf("expected empty snapshot, got %d sections", len(empty.Sections))
	}
}

func TestCollectIncludesFiringAlarms(t *testing.T) {
	ms := seeded()
	ms.PutAlarm(&metricstore.Alarm{
		Name: "cpu-high", Namespace: "Analytics/Compute", Metric: "CPUUtilization",
		Dimensions: map[string]string{"Topology": "c"},
		Period:     time.Minute, Stat: timeseries.AggMean,
		Threshold: 40, Compare: metricstore.GreaterThan, EvalPeriods: 2,
	})
	snap := Collect(ms, t0.Add(30*time.Minute), time.Hour)
	if len(snap.Alarms) != 1 || snap.Alarms[0] != "cpu-high" {
		t.Fatalf("alarms = %v, want [cpu-high]", snap.Alarms)
	}
}

func TestRender(t *testing.T) {
	ms := seeded()
	snap := Collect(ms, t0.Add(30*time.Minute), time.Hour)
	var buf bytes.Buffer
	if err := Render(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"all-in-one-place monitor",
		"[Ingestion/Stream]",
		"[Analytics/Compute]",
		"[Storage/KVStore]",
		"CPUUtilization{Topology=c}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestRenderShowsAlarms(t *testing.T) {
	snap := Snapshot{At: t0, Window: time.Minute, Alarms: []string{"x-high"}}
	var buf bytes.Buffer
	if err := Render(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ALARMS: x-high") {
		t.Fatal("alarm banner missing")
	}
}

func TestWriteCSV(t *testing.T) {
	ms := seeded()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ms, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time,namespace,metric,dimensions,value" {
		t.Fatalf("header = %q", lines[0])
	}
	// 3 metrics × 3 ten-minute buckets = 9 data rows.
	if len(lines) != 1+9 {
		t.Fatalf("rows = %d, want 10", len(lines))
	}
	if !strings.Contains(buf.String(), "Ingestion/Stream,IncomingRecords,StreamName=c,") {
		t.Fatalf("row format unexpected:\n%s", buf.String())
	}
	if err := WriteCSV(&buf, ms, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}
