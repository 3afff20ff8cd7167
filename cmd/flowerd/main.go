// Command flowerd runs Flower-managed data analytics flows: it
// materialises flow definitions (JSON files written by cmd/flowctl, or the
// built-in click-stream default), drives them under elasticity management,
// and reports the outcome plus the consolidated dashboard — the
// command-line equivalent of the demo's "run the service ... and observe
// its performance live" (§4).
//
// Usage:
//
//	flowerd [-spec flow.json] [-for 2h] [-step 10s] [-seed 1] [-peak 3000]
//	        [-csv out.csv] [-window 30m]
//	flowerd -http :8080 [-pace 60] [-spec a.json -spec b.json] [-flows 4]
//	        [-sched-shards 8] [-data-dir dir] [-resume-experiments]
//	        [-selfscrape 1s] [-pprof]
//
// With -http, flowerd serves the multi-flow v1 control plane
// (internal/httpapi): the /v1/flows collection, per-flow status, controller
// tuning, paginated metric queries, dependency analysis, advance and
// pacing, plus per-flow HTML dashboards — and the Scenario Lab's
// /v1/experiments farm, which fans declarative experiment grids out as
// scheduler jobs. All execution — every flow's pacer tick, every
// experiment trial — runs on one sharded tick scheduler (internal/sched),
// sized by -sched-shards (one worker per shard) and observable at
// GET /v1/scheduler; goroutine count stays O(shards) no matter how many
// flows are paced, and a weighted-fairness policy keeps big experiment
// grids from starving live flows. On SIGINT/SIGTERM the daemon shuts
// down in order: HTTP drained, experiments settled, pacers stopped,
// scheduler drained, control WAL synced. The streaming read plane rides
// along: SSE/NDJSON watch endpoints (/v1/flows/{id}/watch,
// /v1/experiments/{id}/watch, /v1/watch) and the columnar
// POST /v1/metrics:batchQuery — see API.md ("Read plane"), `flowctl
// watch` and `flowctl dashboard -follow`. -spec may repeat to serve several
// flows at once, and -flows N serves N independently-seeded replicas of the
// built-in flow; more flows can be created at runtime with POST /v1/flows
// (see API.md, or use the repro/client SDK / flowctl's remote
// subcommands). The -pace flag advances every initial flow's simulated time
// continuously at that many simulated seconds per wall second; with
// -pace 0, time only moves through POST /v1/flows/{id}/advance.
//
// With -data-dir, the control plane is durable: every mutation (flow
// create/pace/tune/delete, experiment submit/cancel/finish) is appended
// to a write-ahead log under the directory before it is acknowledged, and
// periodically compacted into a checkpoint. On boot flowerd replays
// checkpoint + WAL: flows come back with their tuned controllers, pacers
// re-arm on the scheduler, and experiments that were running when the
// process died are marked "interrupted" (-resume-experiments resubmits
// them instead). If the WAL ever fails to write, the plane degrades to
// read-only: mutations return 503 with code "unavailable" while reads and
// watch streams keep serving. See API.md, "Durability & recovery".
//
// Without -http, flowerd performs a single-flow batch run and prints the
// summary and dashboard; -csv exports the run's full metric history.
// flowerd exits non-zero when a durability boundary fails at shutdown — a
// control WAL that cannot be synced is an error, not a log line.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/flow"
	"repro/internal/httpapi"
	"repro/internal/lab"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"

	flower "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowerd: ")

	var specPaths []string
	flag.Func("spec", "path to a JSON flow definition (repeatable with -http; default: built-in click-stream flow)",
		func(v string) error { specPaths = append(specPaths, v); return nil })
	duration := flag.Duration("for", 2*time.Hour, "simulated duration to run (batch mode)")
	step := flag.Duration("step", 10*time.Second, "simulation tick")
	seed := flag.Int64("seed", 1, "simulation seed")
	peak := flag.Float64("peak", 3000, "peak click rate for the built-in flow (records/s)")
	csvPath := flag.String("csv", "", "export the full metric history to this CSV file (batch mode)")
	window := flag.Duration("window", 30*time.Minute, "dashboard window (batch mode)")
	httpAddr := flag.String("http", "", "serve the HTTP control plane on this address instead of a batch run")
	pace := flag.Float64("pace", 60, "with -http: simulated seconds advanced per wall second (0 = manual)")
	replicas := flag.Int("flows", 1, "with -http and no -spec: serve this many independently-seeded replicas of the built-in flow")
	schedShards := flag.Int("sched-shards", 0, "with -http: shards of the execution-plane scheduler, one worker each: the whole server's execution capacity (0: GOMAXPROCS, max 64)")
	pprofOn := flag.Bool("pprof", false, "with -http: expose net/http/pprof under /debug/pprof/ on the same listener")
	selfScrape := flag.Duration("selfscrape", 0, "with -http: ingest flowerd's own telemetry into the reserved "+httpapi.SelfScrapeFlow+" flow every interval (0 = off)")
	dataDir := flag.String("data-dir", "", "with -http: durable control-plane directory (write-ahead log + checkpoint); flows, pacers and experiments survive restarts")
	resumeExperiments := flag.Bool("resume-experiments", false, "with -data-dir: resubmit experiments interrupted by a crash instead of leaving them marked \"interrupted\"")
	flag.Parse()

	loadSpec := func(path string) flower.Spec {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("read spec: %v", err)
		}
		spec, err := flower.DecodeSpec(data)
		if err != nil {
			log.Fatalf("flow definition %s: %v", path, err)
		}
		return spec
	}

	if *httpAddr != "" {
		os.Exit(serveHTTP(*httpAddr, serveConfig{
			specPaths: specPaths, loadSpec: loadSpec,
			peak: *peak, step: *step, seed: *seed, pace: *pace,
			replicas: *replicas, schedShards: *schedShards,
			pprof: *pprofOn, selfScrape: *selfScrape,
			dataDir: *dataDir, resumeExperiments: *resumeExperiments,
		}))
	}

	// Batch mode: one flow, run to completion.
	var spec flower.Spec
	var err error
	switch len(specPaths) {
	case 0:
		spec, err = flower.DefaultClickstream(*peak)
		if err != nil {
			log.Fatalf("flow definition: %v", err)
		}
	case 1:
		spec = loadSpec(specPaths[0])
	default:
		log.Fatalf("batch mode manages one flow; %d -spec flags given (use -http for many)", len(specPaths))
	}

	mgr, err := flower.New(spec, sim.Options{Step: *step, Seed: *seed})
	if err != nil {
		log.Fatalf("manager: %v", err)
	}

	fmt.Printf("flower: managing flow %q for %v (step %v, seed %d)\n", spec.Name, *duration, *step, *seed)
	res, err := mgr.Run(*duration)
	if err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Printf("\n=== run summary ===\n")
	fmt.Printf("records offered:    %d (rejected %d)\n", res.Offered, res.Rejected)
	fmt.Printf("violation rate:     %.2f%% of ticks\n", 100*res.ViolationRate)
	for _, kind := range []flow.LayerKind{flow.Ingestion, flow.Analytics, flow.Storage} {
		fmt.Printf("  %-10s mean util %.1f%%, violations %d ticks, resize actions %d\n",
			kind, res.MeanUtil[kind], res.Violations[kind], res.Actions[kind])
	}
	fmt.Printf("total cost:         $%.4f (peak run rate $%.4f/h)\n", res.TotalCost, res.PeakRunRate)
	fmt.Printf("final allocation:   %d shards, %d VMs, %.0f WCU\n\n",
		res.FinalAllocation.Shards, res.FinalAllocation.VMs, res.FinalAllocation.WCU)

	if err := mgr.RenderDashboard(os.Stdout, *window); err != nil {
		log.Fatalf("dashboard: %v", err)
	}

	if deps, err := mgr.AnalyzeDependencies(); err == nil && len(deps) > 0 {
		fmt.Printf("\n=== learned workload dependencies (Eq. 1) ===\n")
		for _, d := range deps {
			fmt.Printf("  %s\n", d)
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatalf("csv: %v", err)
		}
		defer f.Close()
		if err := mgr.WriteCSV(f, time.Minute); err != nil {
			log.Fatalf("csv: %v", err)
		}
		fmt.Printf("\nmetric history written to %s\n", *csvPath)
	}
}

type serveConfig struct {
	specPaths         []string
	loadSpec          func(string) flower.Spec
	peak              float64
	step              time.Duration
	seed              int64
	pace              float64
	replicas          int
	schedShards       int
	pprof             bool
	selfScrape        time.Duration
	dataDir           string
	resumeExperiments bool
}

// walCompactEvery is how often the serve loop checks whether the control
// WAL has grown enough to fold into a fresh checkpoint.
const walCompactEvery = 15 * time.Second

// serveHTTP registers the initial flows and serves the v1 control plane
// until interrupted, returning the process exit code. One scheduler — the
// unified execution plane — paces every flow and runs every experiment
// trial: -sched-shards is the whole server's capacity knob. With
// cfg.dataDir, state is recovered from the control WAL before any initial
// flow is created, and every subsequent mutation is logged.
func serveHTTP(addr string, cfg serveConfig) int {
	plane := sched.New(sched.Config{Shards: cfg.schedShards})
	reg := registry.New(registry.WithScheduler(plane))
	engine := lab.NewEngineOn(plane)

	// Recovery runs before the WAL hooks attach and before any -spec
	// flow is registered: replayed mutations must not be re-logged, and a
	// recovered flow wins over the initial spec of the same id.
	var clog *persist.ControlLog
	checkpoint := func() *persist.ControlCheckpoint { return persist.CaptureControlState(reg, engine) }
	if cfg.dataDir != "" {
		var state *persist.RecoveredState
		var err error
		clog, state, err = persist.OpenControlLog(cfg.dataDir, persist.ControlLogOptions{})
		if err != nil {
			log.Fatalf("control log %s: %v", cfg.dataDir, err)
		}
		rep := persist.RecoverControlPlane(state, reg, engine, cfg.resumeExperiments)
		if state.TornTail {
			log.Printf("recovery: control WAL ended mid-record (torn tail); the unacknowledged final record was dropped")
		}
		for _, e := range rep.Errors {
			log.Printf("recovery: %s", e)
		}
		if rep.ReplayedRecords > 0 || rep.FlowsRestored > 0 {
			fmt.Printf("flower: recovered %d flows (%d pacers re-armed, %d tunes) and %d interrupted experiments from %s (%d WAL records)\n",
				rep.FlowsRestored, rep.PacersRearmed, rep.TunesApplied, rep.ExperimentsInterrupted, cfg.dataDir, rep.ReplayedRecords)
		}
		// Fold the recovered state into a fresh checkpoint so the next
		// crash replays from here, not from the old tail.
		if err := clog.CompactWith(checkpoint); err != nil {
			log.Printf("boot checkpoint: %v", err)
		}
		reg.SetWAL(clog)
		engine.SetWAL(clog)
		for _, r := range rep.Resumable {
			if _, err := engine.Submit(r.ID, r.Spec); err != nil {
				log.Printf("resume experiment %q: %v", r.ID, err)
			} else {
				fmt.Printf("flower: resumed interrupted experiment %q\n", r.ID)
			}
		}
	}

	var specs []flower.Spec
	for _, path := range cfg.specPaths {
		specs = append(specs, cfg.loadSpec(path))
	}
	if len(specs) == 0 {
		base, err := flower.DefaultClickstream(cfg.peak)
		if err != nil {
			log.Fatalf("flow definition: %v", err)
		}
		if cfg.replicas <= 1 {
			specs = append(specs, base)
		} else {
			for i := 1; i <= cfg.replicas; i++ {
				s := base
				s.Name = fmt.Sprintf("%s-%d", base.Name, i)
				specs = append(specs, s)
			}
		}
	}

	defaultID := ""
	for i, spec := range specs {
		if f, ok := reg.Get(spec.Name); ok {
			// Recovered from the WAL: keep its state (including whether
			// it was paced) rather than resetting it to the -spec file.
			if defaultID == "" {
				defaultID = f.ID()
			}
			continue
		}
		f, err := reg.Create(spec.Name, spec, sim.Options{Step: cfg.step, Seed: cfg.seed + int64(i)})
		if err != nil {
			log.Fatalf("register flow %q: %v", spec.Name, err)
		}
		if defaultID == "" {
			defaultID = f.ID()
		}
		if cfg.pace > 0 {
			if err := f.StartPacing(cfg.pace, 250*time.Millisecond); err != nil {
				log.Fatalf("pace flow %q: %v", f.ID(), err)
			}
		}
	}

	// Background compaction: fold the WAL into a checkpoint once it has
	// accumulated enough records. Runs as a batch-class periodic job on
	// the same execution plane as everything else.
	var compactTicket *sched.Ticket
	if clog != nil {
		tk, err := plane.Periodic("persist/wal-compact", sched.ClassBatch, walCompactEvery, func(int) error {
			if clog.ShouldCompact() {
				if err := clog.CompactWith(checkpoint); err != nil {
					log.Printf("wal compact: %v", err)
				}
			}
			return nil
		}, nil)
		if err != nil {
			log.Printf("wal compact job: %v", err)
		} else {
			compactTicket = tk
		}
	}

	srvOpts := []httpapi.Option{
		httpapi.WithDefaultFlow(defaultID),
		httpapi.WithLab(engine),
		httpapi.WithLogger(log.New(os.Stderr, "flowerd: http: ", 0)),
	}
	if cfg.pprof {
		srvOpts = append(srvOpts, httpapi.WithPprof())
	}
	if cfg.selfScrape > 0 {
		srvOpts = append(srvOpts, httpapi.WithSelfScrape(cfg.selfScrape))
	}
	srv := httpapi.NewServer(reg, srvOpts...)

	fmt.Printf("flower: serving %d flows on %s (pace %.0f sim-s per wall-s)\n", reg.Len(), addr, cfg.pace)
	for _, f := range reg.List() {
		fmt.Printf("  flow %-24s dashboard http://%s/v1/flows/%s/dashboard\n", f.ID(), addr, f.ID())
	}
	fmt.Printf("  api:         http://%s/v1/flows\n  experiments: http://%s/v1/experiments\n  scheduler:   http://%s/v1/scheduler (%d shards, one worker each)\n  telemetry:   http://%s/v1/telemetry\n  dashboard:   http://%s/\n",
		addr, addr, addr, plane.Shards(), addr, addr)
	if cfg.pprof {
		fmt.Printf("  pprof:       http://%s/debug/pprof/\n", addr)
	}
	if cfg.selfScrape > 0 {
		fmt.Printf("  self-scrape: every %v into flow %q\n", cfg.selfScrape, httpapi.SelfScrapeFlow)
	}
	if clog != nil {
		fmt.Printf("  durability:  WAL + checkpoint in %s (seq %d)\n", cfg.dataDir, clog.Seq())
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Printf("serve: %v", err)
	case sig := <-sigCh:
		fmt.Printf("\nflower: %v — shutting down\n", sig)
	}

	// Graceful teardown, producers before the plane they produce onto:
	// stop accepting HTTP (bounded drain of in-flight requests — watch
	// streams are force-closed when the deadline lapses), settle the lab's
	// experiments while workers still run, stop every pacer, and only then
	// drain the scheduler. The control WAL closes after all of it, so every
	// mutation recorded by the final ticks is synced — and a close that
	// fails is a non-zero exit, not a log line.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close() // long-lived watch streams: cut them
	}
	fmt.Println("flower: http drained")
	// The final self-scrape runs after the drain so its snapshot counts
	// every served request, and before the registry closes so the reserved
	// flow's store is still writable.
	srv.Close()
	// Checkpoint the final state while mutations are quiesced but pacers
	// and experiments are still live: a graceful restart then replays
	// paced flows as paced. The engine's finish records land in the WAL
	// tail after this checkpoint, so cancelled experiments stay settled.
	if compactTicket != nil {
		compactTicket.Stop()
	}
	if clog != nil {
		if err := clog.CompactWith(checkpoint); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
	}
	engine.Close()
	fmt.Println("flower: experiments settled")
	reg.Close()
	fmt.Println("flower: pacers stopped")
	plane.Close()
	fmt.Println("flower: scheduler drained")

	if clog != nil {
		if err := clog.Close(); err != nil {
			log.Printf("wal close: %v", err)
			return 1
		}
	}
	return 0
}
