// Command flowerbench is the Scenario Lab's benchmark farm: it fans the
// repository's standard evaluation suites — controller shoot-out,
// monitoring-window and elasticity-speed sweeps, the workload zoo, and
// the §3.2 budget-share Pareto study — out over all cores through
// internal/lab, prints the per-trial tables, and emits a
// machine-readable JSON report so the bench trajectory can be tracked
// across commits. The per-paper-artefact tables (Fig. 2, Eq. 2, …)
// remain available as Go benchmarks (`go test -bench . ./...`), which
// call the same internal/exper functions.
//
// Usage:
//
//	flowerbench                          run every suite, write BENCH_REPORT.json
//	flowerbench -suite controllers       one suite: controllers|windows|gamma|workloads|pareto|perf|sched|obs|query
//	flowerbench -suite perf,sched        comma-separated selection
//	flowerbench -suite perf              metric-pipeline micro-benchmarks only (ns/op, B/op,
//	                                     allocs/op + speedups vs the pre-rebuild implementations)
//	flowerbench -suite sched             execution-plane throughput: 1000 flows paced on the
//	                                     sharded scheduler vs the goroutine-per-flow baseline,
//	                                     plus the scale lab grids — a -sched-flows (default
//	                                     100k) thundering-herd/sustain run and a skewed-duration
//	                                     run — each asserted against recorded pass/fail
//	                                     thresholds (a miss exits non-zero)
//	flowerbench -sched-flows 50000       scale-grid size (CI smoke uses 50k)
//	flowerbench -sched-min-factor 1.2    scaled-down threshold overrides for noisy runners
//	flowerbench -sched-min-fidelity 0.8
//	flowerbench -suite obs               self-telemetry plane cost: scrape ns/op plus hot-path
//	                                     allocation budgets (counter update/read: 0 and <=1
//	                                     allocs/op, asserted — over-budget exits non-zero);
//	                                     writes the final telemetry snapshot to -telemetry-o
//	flowerbench -suite query             query plane: the streaming iterator engine vs the
//	                                     frozen materialize-everything evaluator on the same
//	                                     16-series scan and join+aggregate queries
//	flowerbench -workers 8 -seed 7       pool width and experiment seed
//	flowerbench -o report.json           report path ('-' for stdout, '' to skip)
//
// Report shape (one object per suite, the same lab.Results the
// /v1/experiments API serves):
//
//	{"generated": ..., "seed": 42, "workers": 8, "wall_seconds": ...,
//	 "suites_run": ["controllers", ...],
//	 "suites": [{"name": "controllers", "status": "completed",
//	             "wall_seconds": ..., "progress": {...},
//	             "results": {"trials": [...], "aggregates": {...}}}]}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exper"
	"repro/internal/lab"
	"repro/internal/perfbench"
	"repro/internal/telemetry"
)

// report is the machine-readable output.
type report struct {
	Generated   time.Time `json:"generated"`
	Seed        int64     `json:"seed"`
	Workers     int       `json:"workers"`
	WallSeconds float64   `json:"wall_seconds"`
	// SuitesRun names every suite this invocation executed, lab and
	// measurement alike, in execution order — so a report consumer can
	// tell "suite skipped" apart from "suite ran and found nothing".
	SuitesRun []string      `json:"suites_run"`
	Suites    []suiteReport `json:"suites"`
	// Perf holds the metric-pipeline micro-benchmarks (suite "perf"):
	// ns/op, B/op and allocs/op per benchmark, with speedup ratios against
	// the frozen pre-rebuild implementations — the repository's perf
	// trajectory, tracked commit over commit.
	Perf *perfReport `json:"perf,omitempty"`
	// Sched holds the execution-plane throughput suite (suite "sched"):
	// flows-paced-per-second and goroutine counts on the sharded scheduler
	// versus the retired goroutine-per-flow baseline.
	Sched *schedReport `json:"sched,omitempty"`
	// Obs holds the self-telemetry plane's cost suite (suite "obs"):
	// scrape cost and the allocation budgets of the hot-path instruments
	// (counter updates and reads must stay allocation-free).
	Obs *obsReport `json:"obs,omitempty"`
	// Query holds the query-plane suite (suite "query"): the streaming
	// iterator engine versus the frozen materialize-everything evaluator
	// on the same 16-series queries, with speedup and B/op / allocs/op
	// factors (the two evaluators are proven bit-for-bit equivalent by
	// internal/perfbench's tests).
	Query *perfReport `json:"query,omitempty"`
}

// finalize stamps the suites-run list and pins the report's JSON shape:
// list-valued fields marshal as [] when empty, never null.
func (r *report) finalize(suitesRun []string) {
	if suitesRun == nil {
		suitesRun = []string{}
	}
	r.SuitesRun = suitesRun
	if r.Suites == nil {
		r.Suites = []suiteReport{}
	}
}

// obsReport is the obs suite's section of the report.
type obsReport struct {
	WallSeconds float64          `json:"wall_seconds"`
	Benchmarks  []obsBenchResult `json:"benchmarks"`
	// BudgetsMet is false when any budgeted benchmark exceeded its
	// allocs/op budget; flowerbench also exits non-zero in that case, so
	// CI fails loudly instead of shipping a hot-path regression.
	BudgetsMet bool `json:"budgets_met"`
}

// obsBenchResult is one observability benchmark measurement.
type obsBenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MaxAllocs is the asserted allocs/op budget (-1: unbudgeted).
	MaxAllocs int64 `json:"max_allocs"`
	// WithinBudget reports AllocsPerOp <= MaxAllocs (true when unbudgeted).
	WithinBudget bool `json:"within_budget"`
}

// runObsSuite executes the observability benchmarks and asserts the
// allocation budgets.
func runObsSuite() *obsReport {
	start := time.Now()
	fmt.Println("=== suite obs: self-telemetry plane cost ===")
	rep := &obsReport{BudgetsMet: true}
	for _, bench := range perfbench.ObsSuite() {
		r := testing.Benchmark(bench.F)
		br := obsBenchResult{
			Name:         bench.Name,
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:   r.AllocedBytesPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			MaxAllocs:    bench.MaxAllocs,
			WithinBudget: bench.MaxAllocs < 0 || r.AllocsPerOp() <= bench.MaxAllocs,
		}
		if !br.WithinBudget {
			rep.BudgetsMet = false
		}
		line := fmt.Sprintf("  %-26s %12.1f ns/op %8d B/op %6d allocs/op",
			br.Name, br.NsPerOp, br.BytesPerOp, br.AllocsPerOp)
		if bench.MaxAllocs >= 0 {
			verdict := "ok"
			if !br.WithinBudget {
				verdict = "OVER BUDGET"
			}
			line += fmt.Sprintf("   budget <=%d (%s)", bench.MaxAllocs, verdict)
		}
		fmt.Println(line)
		rep.Benchmarks = append(rep.Benchmarks, br)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	fmt.Printf("  obs suite completed in %.1fs\n\n", rep.WallSeconds)
	return rep
}

// schedThresholds are the sched suite's pass/fail bars, recorded in the
// report so a scale regression fails CI with the numbers next to it.
type schedThresholds struct {
	// MinAdvancesFactor is the minimum sched/legacy advances-per-second
	// ratio for the 1000-flow pacing pair.
	MinAdvancesFactor float64 `json:"min_advances_factor"`
	// MinFidelity is the minimum delivered/demanded tick ratio for the
	// scale and skew grids.
	MinFidelity float64 `json:"min_fidelity"`
	// MaxHerdSetupSeconds bounds the thundering-herd registration burst.
	MaxHerdSetupSeconds float64 `json:"max_herd_setup_seconds"`
}

// schedReport is the sched suite's section of the report.
type schedReport struct {
	WallSeconds float64 `json:"wall_seconds"`
	Flows       int     `json:"flows"`
	// Benchmarks holds the pacing pair: pace_flows_sched (the unified
	// execution plane) and pace_flows_legacy (the frozen goroutine-per-flow
	// baseline), same flow count, pace and window — run in the
	// tick-pressure regime (1ms per-flow ticks) where the design of the
	// pacing plane, not the cost of the simulation steps, is what is
	// measured.
	Benchmarks []perfbench.PaceBenchResult `json:"benchmarks"`
	// AdvancesFactor is sched advances/sec divided by legacy advances/sec
	// (>1: the scheduler paces more simulation per second).
	AdvancesFactor float64 `json:"advances_factor_vs_legacy"`
	// GoroutineFactor is legacy goroutines divided by sched goroutines
	// (>1: the scheduler needs fewer goroutines; expect ~flows/shards).
	GoroutineFactor float64 `json:"goroutine_factor_vs_legacy"`
	// ScaleFlows is the -sched-flows axis: how many synthetic paced jobs
	// the scale and herd grids drive.
	ScaleFlows int `json:"scale_flows"`
	// Scale holds the lab grids: scale_<N> (sustained pacing at ScaleFlows
	// jobs, registered in one thundering-herd burst) and skew (2% of jobs
	// burn CPU every fire, making hot shards).
	Scale []perfbench.ScaleBenchResult `json:"scale"`
	// Thresholds are the pass/fail bars; ThresholdsMet reports whether
	// every measurement cleared them (false also makes flowerbench exit
	// non-zero).
	Thresholds    schedThresholds `json:"thresholds"`
	ThresholdsMet bool            `json:"thresholds_met"`
}

// runSchedSuite measures the 1000-flow pacing pair, the -sched-flows
// scale/herd grid and the skewed-duration grid, asserting each against
// the recorded thresholds.
func runSchedSuite(scaleFlows int, th schedThresholds) *schedReport {
	start := time.Now()
	fmt.Println("=== suite sched: execution-plane pacing throughput (1000 flows) ===")
	// 1ms per-flow ticks: demand outruns what per-flow ticker goroutines
	// can wake for, so the pair measures the pacing plane itself. The
	// coarser 50ms default regime scores ~1.0x — both designs just meet
	// demand — which is a statement about the workload, not the scheduler.
	cfg := perfbench.PaceBenchConfig{Pace: 800, WallTick: time.Millisecond}
	unified, err := perfbench.RunSchedPaceBench(cfg)
	if err != nil {
		log.Fatalf("sched suite: %v", err)
	}
	legacy, err := perfbench.RunLegacyPaceBench(cfg)
	if err != nil {
		log.Fatalf("sched suite: %v", err)
	}
	rep := &schedReport{
		Flows:         unified.Flows,
		Benchmarks:    []perfbench.PaceBenchResult{unified, legacy},
		ScaleFlows:    scaleFlows,
		Thresholds:    th,
		ThresholdsMet: true,
	}
	if legacy.AdvancesPerSec > 0 {
		rep.AdvancesFactor = unified.AdvancesPerSec / legacy.AdvancesPerSec
	}
	if unified.Goroutines > 0 {
		rep.GoroutineFactor = float64(legacy.Goroutines) / float64(unified.Goroutines)
	}
	for _, r := range rep.Benchmarks {
		fmt.Printf("  %-20s %6d flows %10.0f advances/s %6d goroutines", r.Name, r.Flows, r.AdvancesPerSec, r.Goroutines)
		if r.SkippedTicks > 0 || r.LateRuns > 0 {
			fmt.Printf("   (%d late runs, %d ticks dropped by catch-up cap)", r.LateRuns, r.SkippedTicks)
		}
		fmt.Println()
	}
	verdict := "ok"
	if rep.AdvancesFactor < th.MinAdvancesFactor {
		rep.ThresholdsMet = false
		verdict = "BELOW THRESHOLD"
	}
	fmt.Printf("  vs legacy: %.2fx advances/sec (threshold >=%.2fx: %s), %.0fx fewer goroutines\n",
		rep.AdvancesFactor, th.MinAdvancesFactor, verdict, rep.GoroutineFactor)

	// Scale + thundering herd: scaleFlows jobs registered in one burst,
	// then sustained pacing measured.
	scale, err := perfbench.RunSchedScaleBench(fmt.Sprintf("scale_%d", scaleFlows), perfbench.ScaleBenchConfig{
		Jobs: scaleFlows, Interval: time.Second, Wall: 3 * time.Second,
	})
	if err != nil {
		log.Fatalf("sched suite: %v", err)
	}
	// Skewed durations: 2% of jobs burn 300µs of CPU every fire, so some
	// shards run hot; shard-affine execution must still hold the fidelity
	// bar.
	skew, err := perfbench.RunSchedScaleBench("skew", perfbench.ScaleBenchConfig{
		Jobs: 2000, Interval: 100 * time.Millisecond, Wall: 2 * time.Second,
		Shards: 4, HeavyFrac: 0.02, HeavyWork: 300 * time.Microsecond,
	})
	if err != nil {
		log.Fatalf("sched suite: %v", err)
	}
	rep.Scale = []perfbench.ScaleBenchResult{scale, skew}
	for _, r := range rep.Scale {
		ok := r.Fidelity >= th.MinFidelity
		if r.Name == scale.Name {
			ok = ok && r.SetupSeconds <= th.MaxHerdSetupSeconds
		}
		if !ok {
			rep.ThresholdsMet = false
		}
		verdict := "ok"
		if !ok {
			verdict = "BELOW THRESHOLD"
		}
		fmt.Printf("  %-16s %7d jobs %10.0f ticks/s  fidelity %.3f (>=%.2f: %s)  herd setup %.2fs  mean batch %.1f  %d goroutines\n",
			r.Name, r.Jobs, r.TicksPerSec, r.Fidelity, th.MinFidelity, verdict, r.SetupSeconds, r.MeanBatch, r.Goroutines)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	fmt.Printf("  sched suite completed in %.1fs\n\n", rep.WallSeconds)
	return rep
}

// perfReport is the perf suite's section of the report.
type perfReport struct {
	WallSeconds float64       `json:"wall_seconds"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

// benchResult is one micro-benchmark measurement.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Baseline names the legacy benchmark the ratios compare against.
	Baseline string `json:"baseline,omitempty"`
	// Speedup is baseline ns/op divided by this ns/op (>1: faster).
	Speedup float64 `json:"speedup_vs_baseline,omitempty"`
	// AllocReductionPct is the percentage of baseline allocs/op removed.
	AllocReductionPct float64 `json:"alloc_reduction_pct_vs_baseline,omitempty"`
	// BytesFactor / AllocsFactor are baseline B/op and allocs/op divided
	// by this benchmark's (>1: lighter) — the read-plane acceptance bars
	// ("batch query ≥4x fewer bytes and allocs than N single queries")
	// are stated in these.
	BytesFactor  float64 `json:"bytes_factor_vs_baseline,omitempty"`
	AllocsFactor float64 `json:"allocs_factor_vs_baseline,omitempty"`
}

// runPerfSuite executes the perfbench micro-benchmarks through
// testing.Benchmark and derives the vs-legacy ratios.
func runPerfSuite() *perfReport {
	return runBenchSuite("perf: metric-pipeline micro-benchmarks", perfbench.Suite())
}

// runQuerySuite executes the query-plane benchmarks: the streaming
// engine against the materialize-everything baseline evaluator.
func runQuerySuite() *perfReport {
	return runBenchSuite("query: streaming engine vs materializing baseline", perfbench.QuerySuite())
}

// runBenchSuite executes one named set of micro-benchmarks and derives
// the vs-baseline ratio columns.
func runBenchSuite(title string, benches []perfbench.Bench) *perfReport {
	start := time.Now()
	fmt.Printf("=== suite %s ===\n", title)
	byName := map[string]benchResult{}
	rep := &perfReport{}
	for _, bench := range benches {
		r := testing.Benchmark(bench.F)
		br := benchResult{
			Name:        bench.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Baseline:    bench.Baseline,
		}
		if bench.Baseline != "" {
			base, ok := byName[bench.Baseline]
			if !ok {
				// A baseline must precede its comparisons in the suite;
				// a silent miss would drop the vs-legacy columns from the
				// trajectory artifact.
				log.Fatalf("bench suite: benchmark %q names baseline %q, which has not run", bench.Name, bench.Baseline)
			}
			if br.NsPerOp > 0 {
				br.Speedup = base.NsPerOp / br.NsPerOp
			}
			if base.AllocsPerOp > 0 {
				br.AllocReductionPct = 100 * float64(base.AllocsPerOp-br.AllocsPerOp) / float64(base.AllocsPerOp)
			}
			if br.BytesPerOp > 0 {
				br.BytesFactor = float64(base.BytesPerOp) / float64(br.BytesPerOp)
			}
			if br.AllocsPerOp > 0 {
				br.AllocsFactor = float64(base.AllocsPerOp) / float64(br.AllocsPerOp)
			}
		}
		byName[bench.Name] = br
		rep.Benchmarks = append(rep.Benchmarks, br)
		line := fmt.Sprintf("  %-32s %12.1f ns/op %8d B/op %6d allocs/op",
			br.Name, br.NsPerOp, br.BytesPerOp, br.AllocsPerOp)
		if br.Speedup > 0 {
			line += fmt.Sprintf("   %5.1fx vs %s", br.Speedup, br.Baseline)
			if br.AllocReductionPct > 0 {
				line += fmt.Sprintf(", -%.0f%% allocs", br.AllocReductionPct)
			}
		}
		fmt.Println(line)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	fmt.Printf("  suite completed in %.1fs\n\n", rep.WallSeconds)
	return rep
}

type suiteReport struct {
	Name        string       `json:"name"`
	Status      lab.Status   `json:"status"`
	WallSeconds float64      `json:"wall_seconds"`
	Progress    lab.Progress `json:"progress"`
	Results     lab.Results  `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowerbench: ")

	suite := flag.String("suite", "all", "comma-separated suites: all|controllers|windows|gamma|workloads|pareto|perf|sched|obs|query")
	telemetryOut := flag.String("telemetry-o", "TELEMETRY_SNAPSHOT.prom", "with the obs suite: write the process's final telemetry snapshot (Prometheus text) to this path ('' to skip)")
	seed := flag.Int64("seed", 42, "experiment seed")
	workers := flag.Int("workers", 0, "worker pool width (0: GOMAXPROCS)")
	out := flag.String("o", "BENCH_REPORT.json", "JSON report path ('-' for stdout, '' to skip)")
	budget := flag.Float64("budget", 0.29, "hourly budget of the pareto suite's share problem")
	schedFlows := flag.Int("sched-flows", 100000, "sched suite: synthetic paced jobs in the scale/herd grid")
	schedMinFactor := flag.Float64("sched-min-factor", 1.5, "sched suite: minimum advances/sec ratio vs the legacy baseline")
	schedMinFidelity := flag.Float64("sched-min-fidelity", 0.9, "sched suite: minimum delivered/demanded tick ratio in the scale and skew grids")
	flag.Parse()

	suites := map[string]func(int64) (lab.Spec, error){
		"controllers": func(s int64) (lab.Spec, error) { return exper.ControllerShootoutSpec(s), nil },
		"windows":     func(s int64) (lab.Spec, error) { return exper.WindowSweepSpec(s), nil },
		"gamma":       func(s int64) (lab.Spec, error) { return exper.GammaSweepSpec(s), nil },
		"workloads":   func(s int64) (lab.Spec, error) { return exper.WorkloadZooSpec(s), nil },
		"pareto": func(s int64) (lab.Spec, error) {
			spec, plans, err := exper.SharePlanSpec(s, *budget)
			if err != nil {
				return lab.Spec{}, err
			}
			fmt.Printf("pareto: share analyzer found %d Pareto-optimal plans under $%.2f/h\n", len(plans), *budget)
			return spec, nil
		},
	}
	order := []string{"controllers", "windows", "gamma", "workloads", "pareto"}

	// Parse the comma-separated selection; "all" is every lab suite plus
	// the perf and sched measurement suites.
	runPerf, runSched, runObs, runQuery := false, false, false, false
	var selected []string
	for _, name := range strings.Split(*suite, ",") {
		switch name = strings.TrimSpace(name); name {
		case "":
		case "all":
			selected = append(selected, order...)
			runPerf, runSched, runObs, runQuery = true, true, true, true
		case "perf":
			runPerf = true
		case "sched":
			runSched = true
		case "obs":
			runObs = true
		case "query":
			runQuery = true
		default:
			if _, ok := suites[name]; !ok {
				fmt.Fprintf(os.Stderr, "flowerbench: unknown suite %q (want all|%s)\n", name, "controllers|windows|gamma|workloads|pareto|perf|sched|obs|query")
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	// The lab engine exists only when a lab suite runs: a perf- or
	// sched-only invocation must not carry an idle scheduler whose
	// goroutines would pollute the sched suite's peak-goroutine column.
	reportWorkers := *workers
	var engine *lab.Engine
	if len(selected) > 0 {
		engine = lab.NewEngine(*workers)
		defer engine.Close()
		reportWorkers = engine.Workers()
		fmt.Printf("benchmark farm: %d suite(s) on %d workers (seed %d)\n\n",
			len(selected), engine.Workers(), *seed)
	}

	start := time.Now()
	// Submit every suite up front: the engine's pool interleaves their
	// trials, so one long suite cannot leave cores idle.
	type running struct {
		name string
		x    *lab.Experiment
		at   time.Time
	}
	var farm []running
	for _, name := range selected {
		spec, err := suites[name](*seed)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		x, err := engine.Submit(name, spec)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		farm = append(farm, running{name: name, x: x, at: time.Now()})
	}

	// One waiter per suite, so each wall time is submit-to-completion —
	// observing suites in submission order would charge early finishers
	// for their slower siblings' runtime.
	walls := make([]float64, len(farm))
	var wg sync.WaitGroup
	for i, r := range farm {
		wg.Add(1)
		go func(i int, r running) {
			defer wg.Done()
			<-r.x.Done()
			walls[i] = time.Since(r.at).Seconds()
		}(i, r)
	}
	wg.Wait()

	rep := report{Generated: start, Seed: *seed, Workers: reportWorkers}
	var suitesRun []string
	for i, r := range farm {
		sr := suiteReport{
			Name:        r.name,
			Status:      r.x.Status(),
			WallSeconds: walls[i],
			Progress:    r.x.Progress(),
			Results:     r.x.Results(),
		}
		rep.Suites = append(rep.Suites, sr)
		suitesRun = append(suitesRun, r.name)
		printSuite(sr)
	}
	if runPerf {
		rep.Perf = runPerfSuite()
		suitesRun = append(suitesRun, "perf")
	}
	if runSched {
		rep.Sched = runSchedSuite(*schedFlows, schedThresholds{
			MinAdvancesFactor:   *schedMinFactor,
			MinFidelity:         *schedMinFidelity,
			MaxHerdSetupSeconds: 10,
		})
		suitesRun = append(suitesRun, "sched")
	}
	if runObs {
		rep.Obs = runObsSuite()
		suitesRun = append(suitesRun, "obs")
	}
	if runQuery {
		rep.Query = runQuerySuite()
		suitesRun = append(suitesRun, "query")
	}
	rep.finalize(suitesRun)
	rep.WallSeconds = time.Since(start).Seconds()
	fmt.Printf("farm completed in %v\n", time.Since(start).Round(time.Millisecond))

	if runObs && *telemetryOut != "" {
		// The artifact is the process's own telemetry after the whole run —
		// every instrumented package's counters as exercised by the suites —
		// in Prometheus text, uploadable next to the JSON report.
		var buf bytes.Buffer
		if err := telemetry.Default().Snapshot().WriteProm(&buf); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*telemetryOut, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry snapshot written to %s\n", *telemetryOut)
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("report written to %s\n", *out)
		}
	}

	if rep.Obs != nil && !rep.Obs.BudgetsMet {
		log.Fatal("obs suite: allocation budget exceeded (see report)")
	}
	if rep.Sched != nil && !rep.Sched.ThresholdsMet {
		log.Fatal("sched suite: scale threshold missed (see report)")
	}
}

// printSuite renders one suite's table and aggregates.
func printSuite(sr suiteReport) {
	fmt.Printf("=== suite %s: %s (%d/%d trials, max %d concurrent, %.1fs wall) ===\n",
		sr.Name, sr.Status, sr.Progress.Done, sr.Progress.Total,
		sr.Progress.MaxConcurrent, sr.WallSeconds)
	fmt.Printf("  %-28s %10s %10s %8s %10s\n", "trial", "cost ($)", "viol.rate", "actions", "|err| mean")
	for _, tr := range sr.Results.Trials {
		if tr.Status != lab.TrialDone {
			fmt.Printf("  %-28s %s %s\n", tr.Name, tr.Status, tr.Error)
			continue
		}
		actions := 0
		for _, n := range tr.Actions {
			actions += n
		}
		fmt.Printf("  %-28s %10.4f %10.3f %8d %10.2f\n",
			tr.Name, tr.TotalCost, tr.ViolationRate, actions, tr.MeanAbsError)
	}
	agg := sr.Results.Aggregates
	if agg.Completed > 0 {
		if agg.BestCost != nil && agg.BestViolation != nil {
			fmt.Printf("  best cost %s ($%.4f); best violations %s (%.3f)\n",
				agg.BestCost.Name, agg.BestCost.Value, agg.BestViolation.Name, agg.BestViolation.Value)
		}
		if len(agg.Pareto) > 0 {
			fmt.Printf("  measured Pareto front (cost, viol.rate):")
			for _, p := range agg.Pareto {
				fmt.Printf("  %s ($%.4f, %.3f)", p.Name, p.TotalCost, p.ViolationRate)
			}
			fmt.Println()
		}
	}
	fmt.Println()
}
