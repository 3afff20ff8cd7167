package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	testEnvOnce sync.Once
	testEnv     *env
	testEnvErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if testEnv != nil {
		testEnv.close()
	}
	os.Exit(code)
}

// sharedEnv builds flowerd once for the whole package.
func sharedEnv(t *testing.T) *env {
	t.Helper()
	testEnvOnce.Do(func() { testEnv, testEnvErr = newEnv() })
	if testEnvErr != nil {
		t.Fatalf("environment: %v", testEnvErr)
	}
	return testEnv
}

func miniature(size sizing) runConfig {
	return runConfig{
		size: size.shrink(20), seed: 7, warm: 500 * time.Millisecond,
		open: 1250 * time.Millisecond, closed: 250 * time.Millisecond,
		setups: 1, gens: 2, ladder: ladderSize{n: 40, syncN: 8},
	}
}

// TestWorkloadsEmitEveryMetric runs a miniature of every workload through
// the code the benchmark runs — a real flowerd subprocess, the SDK, the
// epilogue checks, then the traced run with its in-process plane, spans
// and ladder — and requires each end-to-end and per-layer name exactly
// once per workload, finite and with a unit. -short keeps one workload:
// mixed, whose plan uses every generator.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	e := sharedEnv(t)
	for _, size := range workloads {
		if testing.Short() && size.name != "mixed" {
			continue
		}
		t.Run(size.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cfg := miniature(size)

			out, err := runEndToEnd(ctx, e, cfg)
			if err != nil {
				t.Fatalf("end-to-end run: %v", err)
			}
			requireMetrics(t, out, false)
			if !out.correct() {
				t.Errorf("end-to-end run incorrect: failed=%d failures=%v notes=%v", out.failed, out.failures, out.notes)
			}

			traceFile := filepath.Join(t.TempDir(), "trace.json")
			out, err = runTraced(ctx, e, cfg, traceFile)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			requireMetrics(t, out, true)
			if !out.correct() {
				t.Errorf("traced run incorrect: failed=%d failures=%v notes=%v", out.failed, out.failures, out.notes)
			}
			if out.layers == nil || len(out.layers.request) == 0 || len(out.layers.tick) == 0 {
				t.Errorf("traced run printed no layers table")
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			data, err := os.ReadFile(traceFile)
			if err != nil || json.Unmarshal(data, &doc) != nil || len(doc.Spans) == 0 {
				t.Errorf("trace file %s: err %v, %d spans", traceFile, err, len(doc.Spans))
			}
		})
	}
}

// requireMetrics checks the result line the driver reads: exactly the
// declared names, each finite, each with a unit.
func requireMetrics(t *testing.T, out *outcome, traced bool) {
	t.Helper()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(resultLine(out, traced)), &line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line.Correct == nil || line.Failed == nil || line.Attempted < 1 {
		t.Errorf("result line lacks correct/attempted/failed: %s", resultLine(out, traced))
	}
	names := metricNames(traced)
	if len(line.Metrics) != len(names) {
		t.Errorf("%d metrics in the result line, want %d", len(line.Metrics), len(names))
	}
	for _, name := range names {
		m, ok := line.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("metric %s is not a finite number", name)
		case m.Unit == "":
			t.Errorf("metric %s has no unit", name)
		}
		if _, computed := out.values[name]; !computed {
			t.Errorf("metric %s was never computed (the result line defaulted it)", name)
		}
	}
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the names, units and
// run length the code uses.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, code runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workloads[%d] = %s (%q), code has %s (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEndNames) {
		t.Errorf("%d end-to-end metrics declared, code emits %d", len(bf.EndToEnd), len(endToEndNames))
	}
	for i, d := range bf.EndToEnd {
		if i < len(endToEndNames) && (d.Name != endToEndNames[i] || d.Unit != endToEndUnits[d.Name]) {
			t.Errorf("end_to_end[%d] = %s (%s), code has %s (%s)", i, d.Name, d.Unit, endToEndNames[i], endToEndUnits[endToEndNames[i]])
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Errorf("%d per-layer metrics declared, code emits %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, d := range bf.PerLayer {
		if i < len(perLayerDefs) && d != perLayerDefs[i] {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, d, perLayerDefs[i])
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.P50 != 3 || s.P25 != 2 || s.P75 != 4 || s.Best != 1 || s.Worst != 5 || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
}
