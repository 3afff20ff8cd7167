// Command flowctl creates, validates and inspects flow definitions — the
// command-line Flow Builder and Configuration Wizard (§4 steps 1–2) — and
// drives a running flowerd control plane through the repro/client SDK,
// including the Scenario Lab's experiment farm.
//
// Local usage:
//
//	flowctl init [-peak 3000] [-o flow.json]   write the default click-stream flow
//	flowctl validate flow.json                 check a definition
//	flowctl show flow.json                     summarise a definition
//	flowctl plan [-budget 0.29] flow.json      Pareto-optimal resource shares (§3.2)
//
// Remote usage (against `flowerd -http`):
//
//	flowctl create -url http://host:8080 [-id web] [-spec flow.json | -peak 3000] [-pace 60]
//	flowctl list -url http://host:8080
//	flowctl status -url http://host:8080 -flow web
//	flowctl advance -url http://host:8080 -flow web -d 30m
//	flowctl tune -url http://host:8080 -flow web -layer analytics [-ref 70] [-window 4m] [-dead-band 5]
//	flowctl delete -url http://host:8080 -flow web
//	flowctl watch -url http://host:8080 [-flow web | -experiment sweep | -flows a,b -experiments x]
//	              [-types flow.advanced,flow.decision] [-after 0] [-json]
//	flowctl query -url http://host:8080 [-explain] [-json] 'select flow=web ns=Ingestion/Stream name=IncomingRecords | window 30m | resample 1m avg'
//	flowctl sched -url http://host:8080 [-json]    execution-plane stats (GET /v1/scheduler)
//	flowctl top -url http://host:8080 [-interval 2s] [-once]   live self-telemetry view
//	flowctl dashboard -url http://host:8080 -flow web [-window 30m] [-follow] [-refresh 1s]
//
// Experiment farm (Scenario Lab, /v1/experiments):
//
//	flowctl experiments create -url http://host:8080 -spec exp.json [-id sweep] [-wait]
//	flowctl experiments list -url http://host:8080
//	flowctl experiments get -url http://host:8080 -id sweep
//	flowctl experiments results -url http://host:8080 -id sweep [-json]
//	flowctl experiments cancel -url http://host:8080 -id sweep
//	flowctl experiments delete -url http://host:8080 -id sweep
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/client"
	"repro/internal/flow"
	"repro/internal/lab"
	"repro/internal/nsga2"
	"repro/internal/sim"

	flower "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowctl: ")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one invocation and returns the process exit code. It is
// the testable seam: the usage paths (missing, unknown and requested
// help) never call os.Exit themselves, so tests can pin the exit-code
// contract — unknown subcommands must fail — without forking a process.
// Individual subcommands still exit directly via log.Fatal on errors.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "flowctl: a subcommand is required")
		printUsage(stderr)
		return 2
	}
	switch args[0] {
	case "init":
		cmdInit(args[1:])
	case "validate":
		cmdValidate(args[1:])
	case "show":
		cmdShow(args[1:])
	case "plan":
		cmdPlan(args[1:])
	case "create":
		cmdCreate(args[1:])
	case "list":
		cmdList(args[1:])
	case "status":
		cmdStatus(args[1:])
	case "advance":
		cmdAdvance(args[1:])
	case "tune":
		cmdTune(args[1:])
	case "delete":
		cmdDelete(args[1:])
	case "watch":
		cmdWatch(args[1:])
	case "query":
		cmdQuery(args[1:])
	case "sched":
		cmdSched(args[1:])
	case "top":
		cmdTop(args[1:])
	case "dashboard":
		cmdDashboard(args[1:])
	case "experiments":
		cmdExperiments(args[1:])
	case "help", "-h", "-help", "--help":
		printUsage(stdout) // requested help is a success
	default:
		fmt.Fprintf(stderr, "flowctl: unknown subcommand %q\n", args[0])
		printUsage(stderr)
		return 2
	}
	return 0
}

// usage enumerates every subcommand on stderr and exits non-zero, so
// scripts and typos never silently succeed; requested help goes through
// printUsage directly and exits 0.
func usage() {
	printUsage(os.Stderr)
	os.Exit(2)
}

func printUsage(w io.Writer) {
	fmt.Fprintln(w, `usage: flowctl <command> [args]

local (flow definitions):
  init        write the default click-stream flow definition
  validate    check a flow definition file
  show        summarise a flow definition file
  plan        Pareto-optimal resource shares for a definition (§3.2)

remote (against flowerd -http; all take -url):
  create      register a flow on the control plane
  list        list registered flows
  status      one flow's live run summary
  advance     move one flow's simulated time forward
  tune        adjust a layer controller at runtime
  delete      stop and remove a flow
  watch       stream live events (flows, experiments) to the terminal
  query       run one streaming pipeline query across every flow (-explain, -json)
  sched       execution-plane stats: shards, capacity, queues, tick latency
  top         live self-telemetry view: HTTP, scheduler, bus, store, lab
  dashboard   one flow's all-in-one-place monitor (-follow: live)

experiment farm (Scenario Lab; all take -url):
  experiments create     submit an experiment grid (-spec exp.json)
  experiments list       list experiments
  experiments get        one experiment's progress and trial grid
  experiments results    per-trial summaries and cross-trial aggregates
  experiments cancel     stop a running experiment
  experiments delete     cancel and remove an experiment

run 'flowctl <command> -h' for the command's flags`)
}

func cmdInit(args []string) {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	peak := fs.Float64("peak", 3000, "peak click rate (records/s)")
	out := fs.String("o", "flow.json", "output path ('-' for stdout)")
	fs.Parse(args)

	spec, err := flower.DefaultClickstream(*peak)
	if err != nil {
		log.Fatal(err)
	}
	data, err := spec.Encode()
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func load(args []string) flower.Spec {
	if len(args) != 1 {
		usage()
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		log.Fatal(err)
	}
	spec, err := flower.DecodeSpec(data)
	if err != nil {
		log.Fatal(err)
	}
	return spec
}

// cmdPlan runs the resource-share analyzer (§3.2) over a flow definition:
// given the budget and the spec's allocation ranges and prices, NSGA-II
// returns the Pareto-optimal (shards, VMs, WCU) plans. A -budget flag
// overrides the spec's budget_per_hour.
func cmdPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	budget := fs.Float64("budget", 0, "hourly budget (overrides the spec's budget_per_hour)")
	seed := fs.Int64("seed", 42, "NSGA-II seed")
	fs.Parse(args)

	spec := load(fs.Args())
	if *budget > 0 {
		spec.BudgetPerHour = *budget
	}
	mgr, err := flower.New(spec, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	plans, err := mgr.AnalyzeShares(nil, nsga2.Config{PopSize: 120, Generations: 250, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pareto-optimal resource shares for %q at $%.3f/hour (%d plans):\n",
		spec.Name, spec.BudgetPerHour, len(plans))
	fmt.Printf("  %-10s %-10s %-10s %-10s\n", "shards(I)", "vms(A)", "wcu(S)", "$/hour")
	for _, plan := range plans {
		fmt.Printf("  %-10.0f %-10.0f %-10.0f %-10.4f\n",
			plan.Amounts[0], plan.Amounts[1], plan.Amounts[2], plan.HourlyCost)
	}
	fmt.Println("pick one manually or at random (§3.2); feed it back as the layers' max allocations")
}

func cmdValidate(args []string) {
	spec := load(args)
	fmt.Printf("%s: valid flow definition (%d layers)\n", args[0], len(spec.Layers))
}

func cmdShow(args []string) {
	spec := load(args)
	fmt.Printf("flow %q\n", spec.Name)
	fmt.Printf("  workload: %s base=%.0f peak=%.0f poisson=%v\n",
		spec.Workload.Pattern, spec.Workload.Base, spec.Workload.Peak, spec.Workload.Poisson)
	for _, l := range spec.Layers {
		fmt.Printf("  %-10s %-14s resource=%-7s alloc=[%g..%g] init=%g controller=%s",
			l.Kind, l.System, l.Resource, l.Min, l.Max, l.Initial, l.Controller.Type)
		if l.Controller.Type != flow.ControllerNone {
			fmt.Printf(" ref=%.0f%% window=%v", l.Controller.Ref, l.Controller.Window.D())
		}
		fmt.Println()
	}
	if spec.BudgetPerHour > 0 {
		fmt.Printf("  budget: $%.3f/hour\n", spec.BudgetPerHour)
	}
	fmt.Printf("  prices: shard $%.4g/h, VM $%.4g/h, WCU $%.4g/h, RCU $%.4g/h\n",
		spec.Prices.ShardHour, spec.Prices.VMHour, spec.Prices.WCUHour, spec.Prices.RCUHour)
}

// --- remote subcommands (client SDK) ---

// remoteFlags returns a flag set pre-populated with the flags every remote
// subcommand shares.
func remoteFlags(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	url := fs.String("url", "", "base URL of a running flowerd control plane (required)")
	return fs, url
}

func dial(url string) *client.Client {
	if url == "" {
		log.Fatal("-url is required for remote commands")
	}
	return client.New(url)
}

func cmdCreate(args []string) {
	fs, url := remoteFlags("create")
	id := fs.String("id", "", "flow id (default: the spec's name)")
	specPath := fs.String("spec", "", "JSON flow definition to register (default: built-in click-stream flow)")
	peak := fs.Float64("peak", 3000, "peak click rate for the built-in flow (records/s)")
	step := fs.Duration("step", 0, "simulation tick (0: server default)")
	seed := fs.Int64("seed", 0, "simulation seed")
	pace := fs.Float64("pace", 0, "start pacing at this many simulated seconds per wall second")
	fs.Parse(args)

	req := apiv1.CreateFlowRequest{ID: *id, Seed: *seed, Pace: *pace}
	if *specPath != "" {
		spec := load([]string{*specPath})
		req.Spec = &spec
	} else {
		req.Peak = *peak
	}
	if *step > 0 {
		req.Step = step.String()
	}
	f, err := dial(*url).CreateFlow(context.Background(), req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created flow %q (name %q, paced=%v)\n", f.ID, f.Name, f.Paced)
}

func cmdList(args []string) {
	fs, url := remoteFlags("list")
	fs.Parse(args)
	flows, err := dial(*url).ListFlows(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %-20s %8s %6s %s\n", "ID", "SIM TIME", "TICKS", "PACE", "ELAPSED")
	for _, f := range flows {
		pace := "-"
		if f.Paced {
			pace = fmt.Sprintf("%.0f", f.Pace)
		}
		fmt.Printf("%-24s %-20s %8d %6s %s\n",
			f.ID, f.SimTime.Format("2006-01-02 15:04:05"), f.Ticks, pace, f.Elapsed)
	}
}

// flowArg extracts the required -flow value.
func flowArg(fs *flag.FlagSet) *string {
	return fs.String("flow", "", "flow id (required)")
}

func needFlow(id string) string {
	if id == "" {
		log.Fatal("-flow is required")
	}
	return id
}

func cmdStatus(args []string) {
	fs, url := remoteFlags("status")
	id := flowArg(fs)
	fs.Parse(args)
	st, err := dial(*url).Status(context.Background(), needFlow(*id))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flow %q: sim time %s (elapsed %s, %d ticks)\n",
		st.Flow, st.SimTime.Format("2006-01-02 15:04:05"), st.Elapsed, st.Ticks)
	fmt.Printf("  offered %d records (rejected %d), violation rate %.2f%%\n",
		st.Offered, st.Rejected, 100*st.ViolationRate)
	fmt.Printf("  cost $%.4f (peak run rate $%.4f/h)\n", st.TotalCost, st.PeakRunRate)
	fmt.Printf("  allocation: %d shards, %d VMs, %.0f WCU, %.0f RCU\n",
		st.Allocation.Shards, st.Allocation.VMs, st.Allocation.WCU, st.Allocation.RCU)
}

func cmdAdvance(args []string) {
	fs, url := remoteFlags("advance")
	id := flowArg(fs)
	d := fs.Duration("d", 10*time.Minute, "simulated duration to advance")
	fs.Parse(args)
	res, err := dial(*url).Advance(context.Background(), needFlow(*id), *d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("advanced %s: %d ticks total, violation rate %.2f%%, cost $%.4f\n",
		res.Advanced, res.Ticks, 100*res.ViolationRate, res.TotalCost)
}

func cmdTune(args []string) {
	fs, url := remoteFlags("tune")
	id := flowArg(fs)
	layer := fs.String("layer", "", "layer kind: ingestion, analytics, storage, storage-reads (required)")
	ref := fs.Float64("ref", 0, "target utilisation percent (0: unchanged)")
	window := fs.Duration("window", 0, "monitoring window (0: unchanged)")
	deadBand := fs.Float64("dead-band", -1, "dead band percent (-1: unchanged)")
	fs.Parse(args)
	if *layer == "" {
		log.Fatal("-layer is required")
	}
	var req apiv1.TuneRequest
	if *ref > 0 {
		req.Ref = ref
	}
	if *window > 0 {
		w := window.String()
		req.Window = &w
	}
	if *deadBand >= 0 {
		req.DeadBand = deadBand
	}
	ctrl, err := dial(*url).TuneController(context.Background(), needFlow(*id), *layer, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s controller: type=%s ref=%.0f%% window=%s dead_band=%.1f (%d actions)\n",
		*layer, ctrl.Type, ctrl.Ref, ctrl.Window, ctrl.DeadBand, ctrl.Actions)
}

func cmdDelete(args []string) {
	fs, url := remoteFlags("delete")
	id := flowArg(fs)
	fs.Parse(args)
	if err := dial(*url).DeleteFlow(context.Background(), needFlow(*id)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted flow %q\n", *id)
}

// cmdWatch streams control-plane events to the terminal: one flow
// (-flow), one experiment (-experiment), or the multiplexed stream
// (-flows/-experiments lists, empty for everything). The SDK iterator
// reconnects with resume on its own, so the stream survives daemon
// restarts with at most a dropped-events marker.
func cmdWatch(args []string) {
	fs, url := remoteFlags("watch")
	flowID := fs.String("flow", "", "watch one flow")
	expID := fs.String("experiment", "", "watch one experiment")
	flows := fs.String("flows", "", "multiplexed stream: comma-separated flow ids ('*' for all)")
	exps := fs.String("experiments", "", "multiplexed stream: comma-separated experiment ids ('*' for all)")
	types := fs.String("types", "", "comma-separated event type filter (e.g. flow.advanced,flow.decision)")
	after := fs.String("after", "", "resume cursor ('0' replays the server's retained history)")
	asJSON := fs.Bool("json", false, "print raw event JSON, one object per line")
	fs.Parse(args)

	var typeList []string
	if *types != "" {
		typeList = strings.Split(*types, ",")
	}
	c := dial(*url)
	var w *client.Watch
	switch {
	case *flowID != "" && *expID != "":
		log.Fatal("-flow and -experiment are mutually exclusive; use -flows/-experiments for a mixed stream")
	case *flowID != "":
		w = c.WatchFlow(*flowID, client.WatchOptions{Types: typeList, After: *after})
	case *expID != "":
		w = c.WatchExperiment(*expID, client.WatchOptions{Types: typeList, After: *after})
	default:
		q := client.WatchQuery{Types: typeList, After: *after}
		switch {
		case *flows == "*":
			q.AllFlows = true
		case *flows != "":
			q.Flows = strings.Split(*flows, ",")
		}
		switch {
		case *exps == "*":
			q.AllExperiments = true
		case *exps != "":
			q.Experiments = strings.Split(*exps, ",")
		}
		w = c.Watch(q)
	}
	defer w.Close()

	ctx := context.Background()
	enc := json.NewEncoder(os.Stdout)
	for {
		ev, err := w.Next(ctx)
		if err != nil {
			log.Fatalf("watch: %v", err)
		}
		if *asJSON {
			if err := enc.Encode(ev); err != nil {
				log.Fatal(err)
			}
			continue
		}
		at := ""
		if !ev.At.IsZero() {
			at = ev.At.Format("15:04:05") + " "
		}
		fmt.Printf("%s%-26s %-16s %s\n", at, ev.Type, ev.Topic, ev.Data)
	}
}

// cmdSched prints the execution plane's live stats: the shard count, the
// per-shard queues and timers, and the run-latency summary. The fixed
// scheduler constants the wire document also carries are left to -json.
func cmdSched(args []string) {
	fs, url := remoteFlags("sched")
	asJSON := fs.Bool("json", false, "print the raw JSON stats")
	fs.Parse(args)
	st, err := dial(*url).SchedulerStats(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("execution plane: %d shards\n", st.Shards)
	fmt.Printf("  process goroutines: %d (O(shards), not O(flows))\n", st.Goroutines)
	fmt.Printf("  totals: %d timers armed, queue depth %d, executed %d flow / %d batch, %d late runs, %d skipped ticks\n",
		st.Timers, st.QueueDepth, st.ExecutedFlow, st.ExecutedBatch, st.LateRuns, st.SkippedTicks)
	fmt.Printf("  batching: %d batches, %d jobs, mean %.1f jobs/batch (max %d)\n",
		st.Batches, st.BatchJobs, st.MeanBatch, st.MaxBatch)
	fmt.Printf("  %-6s %7s %6s %6s %10s %10s %6s %8s %8s %9s %10s %10s\n",
		"SHARD", "TIMERS", "FLOWQ", "BATCHQ", "EXEC.FLOW", "EXEC.BATCH", "LATE", "SKIPPED", "BATCHES", "MAXBATCH", "MEAN(us)", "MAX(us)")
	for _, row := range st.PerShard {
		fmt.Printf("  %-6d %7d %6d %6d %10d %10d %6d %8d %8d %9d %10.1f %10.1f\n",
			row.Shard, row.Timers, row.FlowQueue, row.BatchQueue,
			row.ExecutedFlow, row.ExecutedBatch, row.LateRuns, row.SkippedTicks,
			row.Batches, row.MaxBatch,
			row.Latency.MeanUS, row.Latency.MaxUS)
	}
}

// --- experiment farm (Scenario Lab) ---

func cmdExperiments(args []string) {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, "flowctl: experiments needs an action: create | list | get | results | cancel | delete")
		os.Exit(2)
	}
	switch args[0] {
	case "create":
		cmdExperimentsCreate(args[1:])
	case "list":
		cmdExperimentsList(args[1:])
	case "get":
		cmdExperimentsGet(args[1:])
	case "results":
		cmdExperimentsResults(args[1:])
	case "cancel":
		cmdExperimentsCancel(args[1:])
	case "delete":
		cmdExperimentsDelete(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "flowctl: unknown experiments action %q (want create | list | get | results | cancel | delete)\n", args[0])
		os.Exit(2)
	}
}

// experimentID extracts the required -id value.
func experimentID(fs *flag.FlagSet) *string {
	return fs.String("id", "", "experiment id (required)")
}

func needExperiment(id string) string {
	if id == "" {
		log.Fatal("-id is required")
	}
	return id
}

func cmdExperimentsCreate(args []string) {
	fs, url := remoteFlags("experiments create")
	id := fs.String("id", "", "experiment id (default: the spec's name)")
	specPath := fs.String("spec", "", "JSON experiment definition (lab.Spec) to submit (required)")
	wait := fs.Bool("wait", false, "wait until the experiment settles, then print its results")
	fs.Parse(args)
	if *specPath == "" {
		log.Fatal("-spec is required (a JSON lab.Spec experiment definition)")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	var spec lab.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		log.Fatalf("experiment definition %s: %v", *specPath, err)
	}
	if err := spec.Validate(); err != nil {
		log.Fatalf("experiment definition %s: %v", *specPath, err)
	}

	c := dial(*url)
	ctx := context.Background()
	sum, err := c.CreateExperiment(ctx, apiv1.CreateExperimentRequest{ID: *id, Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted experiment %q (%d trials)\n", sum.ID, sum.Trials)
	if !*wait {
		fmt.Printf("follow it with: flowctl experiments get -url %s -id %s\n", *url, sum.ID)
		return
	}
	final, err := c.WaitExperiment(ctx, sum.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("experiment %q %s (%d/%d trials done, max %d concurrent)\n",
		final.ID, final.Status, final.Progress.Done, final.Progress.Total, final.Progress.MaxConcurrent)
	res, err := c.ExperimentResults(ctx, sum.ID)
	if err != nil {
		log.Fatal(err)
	}
	printExperimentResults(res)
}

func cmdExperimentsList(args []string) {
	fs, url := remoteFlags("experiments list")
	fs.Parse(args)
	exps, err := dial(*url).ListExperiments(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %-10s %7s %6s %6s %6s %6s\n", "ID", "STATUS", "TRIALS", "DONE", "RUN", "FAIL", "CANCEL")
	for _, x := range exps {
		fmt.Printf("%-20s %-10s %7d %6d %6d %6d %6d\n",
			x.ID, x.Status, x.Trials, x.Progress.Done, x.Progress.Running,
			x.Progress.Failed, x.Progress.Cancelled)
	}
}

func cmdExperimentsGet(args []string) {
	fs, url := remoteFlags("experiments get")
	id := experimentID(fs)
	fs.Parse(args)
	x, err := dial(*url).GetExperiment(context.Background(), needExperiment(*id))
	if err != nil {
		log.Fatal(err)
	}
	p := x.Progress
	fmt.Printf("experiment %q: %s (%d trials: %d done, %d running, %d pending, %d failed, %d cancelled; max %d concurrent)\n",
		x.ID, x.Status, p.Total, p.Done, p.Running, p.Pending, p.Failed, p.Cancelled, p.MaxConcurrent)
	fmt.Printf("  duration %s per trial, step %s, %d seed(s)\n",
		x.Spec.Duration.D(), x.Spec.Step.D(), len(x.Spec.Seeds))
	for _, tr := range x.Grid {
		fmt.Printf("  trial %-3d %s (sim seed %d)\n", tr.Index, tr.Name, tr.SimSeed)
	}
}

func cmdExperimentsResults(args []string) {
	fs, url := remoteFlags("experiments results")
	id := experimentID(fs)
	asJSON := fs.Bool("json", false, "print the raw JSON results instead of tables")
	fs.Parse(args)
	res, err := dial(*url).ExperimentResults(context.Background(), needExperiment(*id))
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("experiment %q: %s (%d/%d trials done)\n",
		res.ID, res.Status, res.Progress.Done, res.Progress.Total)
	printExperimentResults(res)
}

// printExperimentResults renders the per-trial table and the aggregates.
func printExperimentResults(res apiv1.ExperimentResults) {
	fmt.Printf("  %-32s %-10s %10s %10s %8s %10s\n", "trial", "status", "cost ($)", "viol.rate", "actions", "|err| mean")
	for _, tr := range res.Results.Trials {
		actions := 0
		for _, n := range tr.Actions {
			actions += n
		}
		fmt.Printf("  %-32s %-10s %10.4f %10.3f %8d %10.2f\n",
			tr.Name, tr.Status, tr.TotalCost, tr.ViolationRate, actions, tr.MeanAbsError)
	}
	agg := res.Results.Aggregates
	if agg.Completed == 0 {
		return
	}
	fmt.Printf("aggregates over %d completed trials:\n", agg.Completed)
	fmt.Printf("  mean cost $%.4f, mean violation rate %.3f\n", agg.MeanCost, agg.MeanViolationRate)
	if agg.BestCost != nil && agg.WorstCost != nil {
		fmt.Printf("  cost:       best %s ($%.4f), worst %s ($%.4f)\n",
			agg.BestCost.Name, agg.BestCost.Value, agg.WorstCost.Name, agg.WorstCost.Value)
	}
	if agg.BestViolation != nil && agg.WorstViolation != nil {
		fmt.Printf("  violations: best %s (%.3f), worst %s (%.3f)\n",
			agg.BestViolation.Name, agg.BestViolation.Value, agg.WorstViolation.Name, agg.WorstViolation.Value)
	}
	if len(agg.Pareto) > 0 {
		fmt.Printf("  Pareto front over (cost, violation rate):\n")
		for _, p := range agg.Pareto {
			fmt.Printf("    %-32s $%.4f  %.3f\n", p.Name, p.TotalCost, p.ViolationRate)
		}
	}
	if len(agg.Deltas) > 0 {
		fmt.Printf("  deltas vs baseline %q:\n", agg.Baseline)
		for _, d := range agg.Deltas {
			fmt.Printf("    %-32s cost %+.1f%%  viol %+.3f\n", d.Name, d.CostPct, d.ViolationDelta)
		}
	}
}

func cmdExperimentsCancel(args []string) {
	fs, url := remoteFlags("experiments cancel")
	id := experimentID(fs)
	fs.Parse(args)
	sum, err := dial(*url).CancelExperiment(context.Background(), needExperiment(*id))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cancelled experiment %q (%d trials done before the cancel)\n", sum.ID, sum.Progress.Done)
}

func cmdExperimentsDelete(args []string) {
	fs, url := remoteFlags("experiments delete")
	id := experimentID(fs)
	fs.Parse(args)
	if err := dial(*url).DeleteExperiment(context.Background(), needExperiment(*id)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted experiment %q\n", *id)
}
