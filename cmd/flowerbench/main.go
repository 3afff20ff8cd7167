// Command flowerbench is the Scenario Lab's benchmark farm: it fans the
// repository's standard evaluation grids — controller shoot-out,
// monitoring-window and elasticity-speed sweeps, the workload zoo, and
// the §3.2 budget-share Pareto study (internal/exper/lab.go) — out over
// all cores through internal/lab, prints the per-trial tables, and emits
// a machine-readable JSON report of every trial. The per-paper-artefact
// tables (Fig. 2 and Eq. 2, E4–E6, …) are Go benchmarks
// (`go test -bench . ./...`): internal/exper runs each artefact's own
// lab grid on the same engine and reduces its trials to the paper's
// table, and the window and γ sweep benchmarks run this farm's grids.
//
// The farm measures Flower's decisions (cost, violations, actions), not
// the speed of the code making them: latency, throughput and CPU claims
// are measured end to end against a real flowerd by cmd/e2ebench.
//
// Usage:
//
//	flowerbench                          run every suite, write BENCH_REPORT.json
//	flowerbench -suite controllers       one suite: controllers|windows|gamma|workloads|pareto
//	flowerbench -suite windows,gamma     comma-separated selection
//	flowerbench -workers 8 -seed 7       pool width and experiment seed
//	flowerbench -budget 0.29             hourly budget of the pareto suite's share problem
//	flowerbench -o report.json           report path ('-' for stdout, '' to skip)
//
// Report shape (one object per suite, the same lab.Results the
// /v1/experiments API serves):
//
//	{"generated": ..., "seed": 42, "workers": 8, "wall_seconds": ...,
//	 "suites": [{"name": "controllers", "status": "completed",
//	             "wall_seconds": ..., "progress": {...},
//	             "results": {"trials": [...], "aggregates": {...}}}]}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/exper"
	"repro/internal/lab"
)

// report is the machine-readable output.
type report struct {
	Generated   time.Time     `json:"generated"`
	Seed        int64         `json:"seed"`
	Workers     int           `json:"workers"`
	WallSeconds float64       `json:"wall_seconds"`
	Suites      []suiteReport `json:"suites"`
}

// finalize pins the report's JSON shape: suites marshal as [] when
// empty, never null.
func (r *report) finalize() {
	if r.Suites == nil {
		r.Suites = []suiteReport{}
	}
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

	suite := flag.String("suite", "all", "comma-separated suites: all|controllers|windows|gamma|workloads|pareto")
	seed := flag.Int64("seed", 42, "experiment seed")
	workers := flag.Int("workers", 0, "worker pool width (0: GOMAXPROCS)")
	out := flag.String("o", "BENCH_REPORT.json", "JSON report path ('-' for stdout, '' to skip)")
	budget := flag.Float64("budget", 0.29, "hourly budget of the pareto suite's share problem")
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

	// Parse the comma-separated selection; "all" is every suite.
	var selected []string
	for _, name := range strings.Split(*suite, ",") {
		switch name = strings.TrimSpace(name); name {
		case "":
		case "all":
			selected = append(selected, order...)
		default:
			if _, ok := suites[name]; !ok {
				fmt.Fprintf(os.Stderr, "flowerbench: unknown suite %q (want all|%s)\n", name, strings.Join(order, "|"))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	engine := lab.NewEngine(*workers)
	defer engine.Close()
	fmt.Printf("benchmark farm: %d suite(s) on %d workers (seed %d)\n\n",
		len(selected), engine.Workers(), *seed)

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

	rep := report{Generated: start, Seed: *seed, Workers: engine.Workers()}
	for i, r := range farm {
		sr := suiteReport{
			Name:        r.name,
			Status:      r.x.Status(),
			WallSeconds: walls[i],
			Progress:    r.x.Progress(),
			Results:     r.x.Results(),
		}
		rep.Suites = append(rep.Suites, sr)
		printSuite(sr)
	}
	rep.finalize()
	rep.WallSeconds = time.Since(start).Seconds()
	fmt.Printf("farm completed in %v\n", time.Since(start).Round(time.Millisecond))

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
