package telemetry

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.prom from this run")

// goldenSnapshot covers every rendering rule of the text exposition: HELP
// and label-value escapes, multi-byte UTF-8 passed through, a family with
// no HELP and one with no samples, ±Inf and NaN, integral values on both
// sides of the 1e15 exponent cut-over, fractional values, and histogram
// le bounds from microseconds to seconds, with and without labels.
func goldenSnapshot() Snapshot {
	bounds := []time.Duration{100 * time.Microsecond, 2500 * time.Microsecond, time.Second, 10 * time.Second}
	return Snapshot{Families: []FamilySnapshot{
		{
			Name: "golden_requests_total", Kind: KindCounter,
			Help:   "Requests by route.\nSecond line with a back\\slash.",
			Labels: []string{"route", "code"},
			Metrics: []MetricSnapshot{
				{LabelValues: []string{"/v1/flows", "200"}, Value: 3},
				{LabelValues: []string{`a"b\c`, "500"}, Value: 0},
				{LabelValues: []string{"line\nbreak", "404"}, Value: 999999999999999},
				{LabelValues: []string{"ünïcødé/日本語", "200"}, Value: 1e15},
				{LabelValues: []string{`\n is not a newline`, `"`}, Value: 12345678901234567890},
			},
		},
		{
			Name: "golden_values", Kind: KindGauge,
			Labels: []string{"case"},
			Metrics: []MetricSnapshot{
				{LabelValues: []string{"+inf"}, Value: math.Inf(1)},
				{LabelValues: []string{"-inf"}, Value: math.Inf(-1)},
				{LabelValues: []string{"nan"}, Value: math.NaN()},
				{LabelValues: []string{"negative zero"}, Value: math.Copysign(0, -1)},
				{LabelValues: []string{"negative integral"}, Value: -42},
				{LabelValues: []string{"quarter"}, Value: 0.25},
				{LabelValues: []string{"negative fraction"}, Value: -3.5},
				{LabelValues: []string{"tiny"}, Value: 1.5e-7},
				{LabelValues: []string{"large fraction"}, Value: 123456789.125},
				{LabelValues: []string{"max float"}, Value: math.MaxFloat64},
				{LabelValues: []string{"smallest"}, Value: -math.SmallestNonzeroFloat64},
				{LabelValues: []string{""}, Value: 1},
			},
		},
		{Name: "golden_empty", Kind: KindGauge, Help: "A family with no samples."},
		{
			Name: "golden_seconds", Kind: KindHistogram, Help: "Unlabeled latency.",
			Metrics: []MetricSnapshot{{Histogram: &HistogramSnapshot{
				Bounds: bounds, Counts: []uint64{1, 0, 7, 2, 1}, Count: 11,
				SumNanos: 12_345_678_901,
			}}},
		},
		{
			Name: "golden_route_seconds", Kind: KindHistogram, Help: `Latency by "route".`,
			Labels: []string{"route"},
			Metrics: []MetricSnapshot{
				{LabelValues: []string{`/v1/"x"\y`}, Histogram: &HistogramSnapshot{
					Bounds: bounds, Counts: []uint64{0, 0, 0, 0, 0},
				}},
				{LabelValues: []string{"/v1/query"}, Histogram: &HistogramSnapshot{
					Bounds: bounds, Counts: []uint64{5, 4, 3, 2, 1}, Count: 15,
					SumNanos: 2_000_000_000,
				}},
			},
		},
	}}
}

// TestWritePromGolden pins the exposition text byte for byte. Regenerate
// with `go test ./internal/telemetry -run TestWritePromGolden -update` only
// when a change is meant to alter the rendered output.
func TestWritePromGolden(t *testing.T) {
	const golden = "testdata/exposition.prom"
	var sb strings.Builder
	if err := goldenSnapshot().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d differs from %s:\n got %q\nwant %q", i+1, golden, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gotLines), golden, len(wantLines))
	}
}

// FuzzPromLabelEscape renders an arbitrary label value and parses it back
// per the exposition grammar: the value must round-trip, and the rendered
// value must hold no raw newline and no unescaped quote.
func FuzzPromLabelEscape(f *testing.F) {
	for _, s := range []string{"", "plain", `a"b\c`, "line\nbreak", `\n`, `\"`, "ünïcødé/日本語", "\xff\xfe"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		snap := Snapshot{Families: []FamilySnapshot{{
			Name: "m", Kind: KindGauge, Labels: []string{"l"},
			Metrics: []MetricSnapshot{{LabelValues: []string{v}, Value: 1}},
		}}}
		var sb strings.Builder
		if err := snap.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		rendered, ok := strings.CutPrefix(sb.String(), "# TYPE m gauge\nm{l=\"")
		if ok {
			rendered, ok = strings.CutSuffix(rendered, "\"} 1\n")
		}
		if !ok {
			t.Fatalf("sample line malformed: %q", sb.String())
		}
		if strings.Contains(rendered, "\n") {
			t.Fatalf("rendered value %q holds a raw newline", rendered)
		}
		got, err := unescapePromLabel(rendered)
		if err != nil {
			t.Fatalf("rendered value %q: %v", rendered, err)
		}
		if got != v {
			t.Fatalf("round trip: %q rendered as %q parses back as %q", v, rendered, got)
		}
	})
}

// unescapePromLabel reverses label-value escaping per the text exposition
// grammar: \\, \" and \n stand for a backslash, a quote and a newline; any
// other backslash sequence or a bare quote is malformed.
func unescapePromLabel(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return "", fmt.Errorf("unescaped quote at byte %d", i)
		case '\\':
			if i++; i == len(s) {
				return "", errors.New("dangling backslash")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", fmt.Errorf("unknown escape \\%c at byte %d", s[i], i-1)
			}
		default:
			b.WriteByte(c)
		}
	}
	return b.String(), nil
}
