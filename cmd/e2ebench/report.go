package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the bench reads back: the
// units it prints and the bounds -selfcheck holds two sets to.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func unitOf(name string) string {
	if u, ok := endToEndUnits[name]; ok {
		return u
	}
	for _, d := range perLayerDefs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "req_p50_ms": "ms", "tick_lag_p50_ms": "ms", "tick_delivered_ratio": "ratio",
	"ok_ratio": "ratio", "daemon_cpu_s": "s", "daemon_rss_mb": "MB",
}

func metricNames(traced bool) []string {
	if !traced {
		return endToEndNames
	}
	names := make([]string, len(perLayerDefs))
	for i, d := range perLayerDefs {
		names[i] = d.Name
	}
	return names
}

// printOutcome writes one run's metrics by name with unit and value, the
// within-run sample families with count, median and quartiles, and the
// verdicts of the checks.
func printOutcome(w io.Writer, o *outcome, traced bool) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  correct=%v attempted=%d failed=%d gen_late_p99=%.3fms\n",
		o.workload, o.seed, mode, o.correct(), o.attempted, o.failed, o.genLateMS)
	if o.genLateMS > 1 {
		fmt.Fprintf(w, "   INVALID: the generator itself ran late (bench.gen_late_p99_ms > 1); this run measures the bench, not the daemon\n")
	}
	fmt.Fprintf(w, "   %-36s %-6s %14s\n", "metric", "unit", "value")
	for _, name := range metricNames(traced) {
		fmt.Fprintf(w, "   %-36s %-6s %14.4f\n", name, unitOf(name), o.values[name])
	}
	if !traced {
		for _, name := range loadNames {
			fmt.Fprintf(w, "   %-36s %-6s %14.4f  (not gated)\n", name, unitOf(name), o.values[name])
		}
	}
	keys := make([]string, 0, len(o.summaries))
	for k := range o.summaries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		fmt.Fprintf(w, "   %-36s %8s %10s %10s %10s %10s %10s\n", "samples", "n", "p25", "median", "p75", "p99", "max")
	}
	for _, k := range keys {
		s := o.summaries[k]
		fmt.Fprintf(w, "   %-36s %8d %10.4f %10.4f %10.4f %10.4f %10.4f\n", k, s.N, s.P25, s.P50, s.P75, s.P99, s.Worst)
	}
	if o.layers != nil {
		o.layers.print(w)
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, f := range o.findings {
		fmt.Fprintf(w, "   FINDING (not counted as failed): %s\n", f)
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
}

// resultLine is the driver's contract: exactly correct, attempted, failed
// and metrics, every value with all its digits.
func resultLine(o *outcome, traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: o.correct(), Attempted: max(o.attempted, 1), Failed: o.failed + len(o.failures), Metrics: map[string]value{}}
	for _, name := range metricNames(traced) {
		v := o.values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[name] = value{Value: v, Unit: unitOf(name)}
	}
	data, _ := json.Marshal(out) // a struct of numbers and strings cannot fail to marshal
	return string(data)
}

// --- history ---

// historyRow is one invocation, compact: where and when, then per workload
// the end-to-end medians and the paper's outcome numbers.
type historyRow struct {
	Commit    string                        `json:"commit"`
	Date      string                        `json:"date"`
	NProc     int                           `json:"nproc"`
	Seconds   float64                       `json:"seconds"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // a checkout without git metadata still gets a row
	}
	return strings.TrimSpace(string(out))
}

func appendHistory(path, root string, seconds int, outs []*outcome) error {
	row := historyRow{Commit: commitOf(root), Date: time.Now().UTC().Format(time.RFC3339), NProc: runtime.NumCPU(),
		Seconds: float64(seconds), Workloads: map[string]map[string]float64{}}
	byWorkload := map[string][]*outcome{}
	for _, o := range outs {
		byWorkload[o.workload] = append(byWorkload[o.workload], o)
	}
	for name, runs := range byWorkload {
		cols := map[string]float64{}
		for _, metric := range endToEndNames {
			var vs []float64
			for _, o := range runs {
				if v, ok := o.values[metric]; ok {
					vs = append(vs, v)
				}
			}
			if len(vs) > 0 {
				cols[metric] = median(vs)
			}
		}
		// The paper's outcome numbers ride along whatever the mode: they
		// are exact under the seed, so a refactor that moves them shows.
		violation, cost, err := simOutcome(newLadderInputs(runs[0].seed).defs)
		if err != nil {
			return err
		}
		cols["sim.violation_rate"], cols["sim.total_cost_usd"] = violation, cost
		row.Workloads[name] = cols
	}
	data, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- selfcheck ---

// selfCheckRuns is how many seeds make one set.
const selfCheckRuns = 5

// selfCheck runs two full sets of the same code, seed by seed, and names
// every end-to-end metric whose two medians differ by more than its bound
// in BENCHMARK.json. This is how the bounds were calibrated.
func selfCheck(ctx context.Context, e *env, o options, sizes []sizing) int {
	bf, err := readBenchmarkFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: selfcheck:", err)
		return 2
	}
	code := 0
	var sets [2]map[string]map[string][]float64 // set -> workload -> metric -> values
	for set := range sets {
		sets[set] = map[string]map[string][]float64{}
		for _, size := range sizes {
			sets[set][size.name] = map[string][]float64{}
			for r := 0; r < selfCheckRuns; r++ {
				oo := o
				oo.seed = o.seed + int64(r)
				out, err := runEndToEnd(ctx, e, oo.config(size))
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2ebench: selfcheck: %s seed %d: %v\n", size.name, oo.seed, err)
					return 2
				}
				if !out.correct() {
					printOutcome(os.Stdout, out, false)
					code = 1
				}
				for _, name := range endToEndNames {
					sets[set][size.name][name] = append(sets[set][size.name][name], out.values[name])
				}
				fmt.Printf("set %d  %-6s seed %d done\n", set+1, size.name, oo.seed)
			}
		}
	}
	fmt.Printf("%-7s %-22s %12s %12s %9s %7s %9s\n", "load", "metric", "median 1", "median 2", "worse by", "bound", "spread 1")
	for _, size := range sizes {
		for _, d := range bf.EndToEnd {
			a, b := sets[0][size.name][d.Name], sets[1][size.name][d.Name]
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = ratio(ma-mb, ma)
			}
			s := summarize(a)
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-7s %-22s %12.4f %12.4f %8.1f%% %6.1f%% %8.1f%%%s\n", size.name, d.Name, ma, mb, 100*worse, 100*d.Bound, 100*ratio(s.P75-s.P25, s.P50), verdict)
		}
	}
	return code
}
