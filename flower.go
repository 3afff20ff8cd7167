// Package flower is the public API of this reproduction of "Flower: A
// Data Analytics Flow Elasticity Manager" (Khoshkbarforoushha, Ranjan,
// Wang, Friedrich — PVLDB 10(12), 2017).
//
// Flower manages the elasticity of a three-layer cloud data analytics
// flow — ingestion (a Kinesis-like sharded stream), analytics (a Storm-like
// topology on a VM cluster) and storage (a DynamoDB-like provisioned-
// throughput table) — holistically: it learns cross-layer workload
// dependencies with linear regression, splits a budget into per-layer
// resource shares with NSGA-II, keeps each layer at its desired
// utilisation with adaptive-gain feedback controllers, and consolidates
// all platforms' metrics in one monitoring view.
//
// The cloud substrates are simulated (this module is offline and
// stdlib-only). Many flows can be managed concurrently by one process
// through a Registry, which backs the versioned HTTP control plane served
// by cmd/flowerd (see API.md for the v1 REST routes and repro/client for
// the typed Go SDK).
//
// Quickstart:
//
//	spec, err := flower.DefaultClickstream(3000) // 3000 clicks/s peak
//	if err != nil { ... }
//	mgr, err := flower.New(spec, flower.Options{})
//	if err != nil { ... }
//	res, err := mgr.Run(2 * time.Hour)
//	if err != nil { ... }
//	fmt.Printf("cost $%.2f, violations %.1f%%\n", res.TotalCost, 100*res.ViolationRate)
//	mgr.RenderDashboard(os.Stdout, 30*time.Minute)
//
// # Scenario Lab
//
// Beyond managing one flow at a time, the Scenario Lab (internal/lab)
// turns whole evaluation studies into first-class experiments: a
// declarative grid of workload patterns × controller knob sets ×
// initial-allocation plans × seeds expands into trials, which an engine
// fans out over a bounded worker pool with deterministic per-trial
// seeds, progress tracking and cancellation. Results come back as
// per-trial summaries (cost, violation rate, utilisation) plus
// cross-trial aggregates — best/worst, baseline deltas, and the Pareto
// front over (cost, violation rate). The lab is also served remotely at
// /v1/experiments (see API.md), driven by `flowctl experiments`, and
// powers cmd/flowerbench, which farms out the evaluation grids. The
// paper's simulated artefacts (Fig. 2 and Eq. 2, the controller and
// cost comparisons) run as lab grids too; per-trial summaries carry the
// arrival→CPU dependency fit and the settle time those artefacts report.
//
// Lab quickstart — compare two monitoring windows across two workload
// patterns, eight simulated hours each, all cores busy:
//
//	engine := flower.NewLab(0) // 0: one worker per core
//	defer engine.Close()
//	x, err := engine.Submit("sweep", flower.ExperimentSpec{
//		Name:     "sweep",
//		Peak:     3000,
//		Duration: flower.Duration(8 * time.Hour),
//		Workloads: []flower.WorkloadVariant{
//			{Name: "diurnal", Workload: flower.WorkloadSpec{Pattern: "diurnal", Base: 500, Peak: 3000, Period: flower.Duration(9 * time.Hour), Poisson: true}},
//			{Name: "spike", Workload: flower.WorkloadSpec{Pattern: "spike", Base: 400, Peak: 1500, Period: flower.Duration(24 * time.Hour), At: flower.Duration(3 * time.Hour), Length: flower.Duration(45 * time.Minute), Factor: 5}},
//		},
//		Controllers: []flower.ControllerVariant{
//			{Name: "fast", Layers: map[flower.LayerKind]flower.ControllerSpec{flower.Analytics: flower.DefaultAdaptive(60, time.Minute, 4)}},
//			{Name: "slow", Layers: map[flower.LayerKind]flower.ControllerSpec{flower.Analytics: flower.DefaultAdaptive(60, 5*time.Minute, 4)}},
//		},
//	})
//	if err != nil { ... }
//	<-x.Done()
//	res := x.Results()
//	for _, p := range res.Aggregates.Pareto {
//		fmt.Printf("%s: $%.2f at %.1f%% violations\n", p.Name, p.TotalCost, 100*p.ViolationRate)
//	}
//
// # Execution plane
//
// All recurring and queued work — every paced flow's wall-clock tick,
// every Scenario Lab trial — executes on one sharded tick scheduler
// (internal/sched): per-shard hashed timer wheels arm periodic jobs in
// O(1), and each shard's one goroutine advances its wheel and runs what it
// fired from per-shard run queues, so the process goroutine count stays
// O(shards) no matter how many flows are paced. Execution is batched: each
// wheel advance drains everything it fired into per-class run batches in
// one queue operation, so the shard lock is taken per advance rather than
// per fired job, and a batch's stats flush back in one acquisition — the
// drain loop is allocation-free at steady state. Batches are capped at 256
// jobs so a thundering herd splits into units and a queued trial chunk
// waits behind one of them, not the whole herd. Execution is shard-affine:
// a paced flow is armed, queued, executed and re-armed on the one shard
// its id hashes to, so no shard ever touches another shard's state and
// per-shard counters are exact. First fires are hash-spread across each
// job's interval, which keeps 100k co-created paced flows from colliding
// in one wheel slot. Flow pacing and experiment grids are co-scheduled
// under a weighted fairness policy (a big grid cannot starve live flows),
// pacers that fall behind wall time degrade via a bounded catch-up policy
// (dropped ticks are counted, backlogs never grow), and the whole plane is
// observable — queue depths, late and skipped ticks, batch-shape counters,
// run-latency histograms — at GET /v1/scheduler, `flowctl sched`, and
// Scheduler.Stats. Size it with flowerd's -sched-shards; the shard count,
// one goroutine each, is the one capacity knob of the whole server.
// sched.TestHerdHoldsSchedule holds a 50k-job thundering herd to a bounded
// setup and ≥ 90% delivered-tick fidelity; cmd/e2ebench measures tick lag
// and CPU in a running flowerd.
//
// # Metric pipeline
//
// The metric store at the centre of every flow (internal/metricstore, the
// CloudWatch analogue of Fig. 3) is columnar and handle-based: a series is
// a float64 value column beside a time column that stays cadence-encoded
// as (t0, step) while appends keep one step, and stores int64 unix nanos
// only once they do not. Hot-path callers — per-tick publishers in the
// simulated substrates, control-loop sensors, SLO accounting — resolve a
// *metricstore.Handle once at build time and then append or aggregate
// through it allocation-free, under a per-metric lock. Windowed statistics
// are answered by window arithmetic (binary search on an explicit time
// column) plus a single streaming pass over a zero-copy view; retention
// pruning is an amortised head drop, never a copy of the surviving points.
// Callers whose metric identity is per-request (HTTP queries, alarms)
// resolve with Store.Lookup and read through the same handle. Every period
// statistic, whether its buckets start at the epoch or at the window's
// first point, is one bucket walker over contiguous index ranges of a view.
// See API.md ("Metric store: handle-based hot path") for the performance
// model. TestColumnarStoreMatchesLegacyRandomised holds the store
// bit-for-bit to the pre-rebuild implementation, kept as a test oracle,
// and cmd/e2ebench measures the read and write paths end to end.
//
// # Read plane
//
// Observation is push-and-batch, not poll-and-point. Every control-plane
// state change — flow lifecycle, advances, per-layer controller
// decisions, pacer transitions, experiment and trial state — is published
// on bounded event buses (internal/eventbus; Registry.Events and the lab
// engine's Events) and streamed over HTTP as Server-Sent Events or NDJSON
// at /v1/flows/{id}/watch, /v1/experiments/{id}/watch and the
// multiplexed /v1/watch, with Last-Event-ID resume, heartbeats, and
// explicit dropped-event markers for slow consumers (publishing never
// blocks the simulation tick). Bulk series reads go through
// POST /v1/metrics:batchQuery: many (flow, metric, window, resample)
// selectors per request, answered as columnar ts/vs arrays serialized
// straight from the store — the SDK's BatchQueryMetrics fetches many
// series in one round trip instead of one per-point query each. The SDK's
// WatchFlow/WatchExperiment/Watch iterators reconnect and resume on
// their own, WaitExperiment waits on a watch stream with zero
// steady-state polls, and
// `flowctl watch` / `flowctl dashboard -follow` bring the streams to the
// terminal. See API.md ("Read plane").
//
// # Query plane
//
// Ad-hoc analysis goes through a streaming query engine (internal/query)
// exposed at POST /v1/query: composable pipelines — select (flow/ns/name
// globs + exact dimensions), window, filter, map, epoch-aligned
// resample, cross-flow/cross-metric join on bucket starts, topk, limit
// and agg — written in a pipe syntax or the equivalent JSON AST.
// Operator chains iterate zero-copy views of the columnar store under
// each flow's lock (timeseries.View.Align yields each bucket as an index
// range, aggregated in place over explicit values or over runs without
// expanding them), a terminal aggregate fuses into the streaming pass,
// and a greedy planner resolves selects once, pushes window/resample
// down to the View layer and evaluates the more selective join side
// first — ?explain=1 reports every decision without running. The
// planner resolves flow globs against the registry on every plan, with
// no cache to invalidate. batchQuery and the single-metric route are now
// sugar over the same executor, so every read surface agrees bucket for
// bucket. The SDK exposes Query/QueryPlan/QueryExplain, `flowctl query`
// renders the tables, and query.TestQueryEngineMatchesNaive holds the
// engine bit-for-bit to a frozen materialize-everything evaluator on a
// 16-series scan and join+aggregate query. See API.md ("Query plane").
//
// # Self-telemetry
//
// The plane watches itself with a zero-dependency metrics registry
// (internal/telemetry): atomic counters, gauges and fixed-bucket latency
// histograms, labeled families, allocation-free on the write path — the
// budgets are testing.AllocsPerRun tests beside the code. Every layer is
// instrumented (HTTP middleware, scheduler, event bus, metric store,
// registry, lab, persistence), and GET /v1/telemetry serves the snapshot
// as JSON or, via Accept/?format negotiation, as the Prometheus text
// exposition. One flow advance in every N is traced end to end —
// scheduler fire → controller decision → metric append → event publish →
// SSE delivery, with per-stage durations — at GET /v1/telemetry/trace.
// Every response carries an X-Request-ID; SSE heartbeats carry bus-wide
// publish/drop totals. flowerd's -pprof flag mounts net/http/pprof, and
// -selfscrape feeds the daemon's own snapshots into its metric store as
// the reserved flow "plane.self" (namespace Flower/Telemetry), so
// forecasting and the batch query plane can watch the plane itself. The
// SDK exposes client.Telemetry and client.TelemetryTrace; `flowctl top`
// renders the live terminal view. See API.md ("Telemetry").
//
// # Durability
//
// With `flowerd -data-dir`, the control plane survives crashes
// (internal/persist): every mutation — flow create/pace/tune/delete,
// experiment submit/cancel/finish — is appended to a CRC-framed,
// fsynced write-ahead log before it is acknowledged, and periodically
// compacted into a JSON checkpoint. On boot the daemon replays
// checkpoint + WAL: flows come back with their tunings, pacers re-arm
// on the scheduler, and experiments that were running at the crash are
// marked interrupted (or resubmitted with -resume-experiments). A torn
// final record — the residue of dying mid-append — is dropped and
// counted; if the log itself ever fails to append, the plane degrades
// to read-only (mutations answer 503 unavailable, reads and watch
// streams keep serving) rather than acknowledge anything it cannot
// make durable. The kill -9 crash-recovery integration test in
// cmd/flowerd and the fault-injection filesystem (internal/injectfs)
// keep the contract honest. Metric datapoints are not logged: every run
// is a seeded simulation, so a batch run's history is recomputed by
// running it again (flowerd -csv exports it). See API.md ("Durability &
// recovery").
//
// # Static analysis
//
// The invariants above are machine-checked. internal/analysis is a
// stdlib-only static-analysis suite (a `go list -json -deps -export`
// driver plus go/parser and go/types — no dependencies) with five
// analyzers: lockorder (the whole-program acquired-while-held lock
// graph must stay acyclic and respect the documented orders), hotpath
// (per-tick packages must use build-time metric handles — no handle
// resolution or MetricID construction in loops), wallclock (time.Now/Sleep/timers are banned outside simtime,
// telemetry, commands, examples and tests — the simulation is
// single-clocked and wall time belongs to the packages that measure it),
// stopleak (every created Scheduler, Ticket,
// Subscription, lab Engine, Registry or persist WAL handle must reach
// Stop/Close or escape to a new owner), and wirejson (exported fields of wire structs must
// carry json tags; interface-typed fields are rejected). Run it with
// `go run ./cmd/flowervet ./...` (exit non-zero on findings,
// -list enumerates analyzers); `go test ./internal/analysis` runs the
// same suite over the repo's own source plus a golden-package corpus,
// and CI runs the binary on every push. Deliberate exceptions carry
// `//flowervet:allow <analyzer>(<reason>)` pragmas. See API.md
// ("Static analysis").
package flower

import (
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/flow"
	"repro/internal/lab"
	"repro/internal/monitor"
	"repro/internal/nsga2"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/share"
	"repro/internal/sim"
)

// Manager is a Flower instance managing one flow; see core.Manager.
type Manager = core.Manager

// Registry is a concurrency-safe collection of named managed flows — the
// multi-tenant layer underneath the v1 HTTP control plane; see
// registry.Registry.
type Registry = registry.Registry

// ManagedFlow is one registered flow: a Manager plus its own lock and
// wall-clock pacer; see registry.Flow.
type ManagedFlow = registry.Flow

// Options tunes the simulation harness underneath a manager.
type Options = sim.Options

// Result summarises a managed run.
type Result = sim.Result

// Flow-definition types (the programmatic Flow Builder and Configuration
// Wizard).
type (
	// Spec is a complete flow definition.
	Spec = flow.Spec
	// Builder assembles a Spec fluently.
	Builder = flow.Builder
	// LayerSpec configures one layer.
	LayerSpec = flow.LayerSpec
	// ControllerSpec configures a layer's controller.
	ControllerSpec = flow.ControllerSpec
	// WorkloadSpec selects the generator pattern.
	WorkloadSpec = flow.WorkloadSpec
	// Duration is a JSON-friendly duration.
	Duration = flow.Duration
)

// Layer kinds.
const (
	Ingestion = flow.Ingestion
	Analytics = flow.Analytics
	Storage   = flow.Storage
)

// Controller types.
const (
	ControllerNone          = flow.ControllerNone
	ControllerAdaptive      = flow.ControllerAdaptive
	ControllerMemoryless    = flow.ControllerMemoryless
	ControllerFixedGain     = flow.ControllerFixedGain
	ControllerQuasiAdaptive = flow.ControllerQuasiAdaptive
	ControllerRule          = flow.ControllerRule
)

// Analysis result types.
type (
	// Dependency is a learned cross-layer relationship (Eq. 1).
	Dependency = deps.Dependency
	// MetricRef names one monitored measure of one layer.
	MetricRef = deps.MetricRef
	// Plan is one Pareto-optimal provisioning plan (Fig. 4).
	Plan = share.Plan
	// ShareProblem is the Eq. 3–5 program.
	ShareProblem = share.Problem
	// ShareConstraint is one linear constraint of the program.
	ShareConstraint = share.Constraint
	// NSGA2Config tunes the genetic search.
	NSGA2Config = nsga2.Config
	// Snapshot is one all-in-one-place monitoring view.
	Snapshot = monitor.Snapshot
)

// Scenario Lab types (the experiment farm; see internal/lab).
type (
	// Lab executes experiments on a bounded worker pool.
	Lab = lab.Engine
	// Experiment is one submitted experiment with live results.
	Experiment = lab.Experiment
	// ExperimentSpec is a declarative experiment grid.
	ExperimentSpec = lab.Spec
	// WorkloadVariant is one point on an experiment's workload axis.
	WorkloadVariant = lab.WorkloadVariant
	// ControllerVariant is one point on the controller-knobs axis.
	ControllerVariant = lab.ControllerVariant
	// AllocationVariant is one point on the initial-allocation axis.
	AllocationVariant = lab.AllocationVariant
	// TrialSummary is one trial's outcome.
	TrialSummary = lab.TrialSummary
	// ExperimentResults holds per-trial summaries plus aggregates.
	ExperimentResults = lab.Results
)

// Execution-plane types (the sharded tick scheduler; see internal/sched).
type (
	// Scheduler is the unified execution plane running pacers and trials.
	Scheduler = sched.Scheduler
	// SchedulerConfig sizes a scheduler: its shard count, one worker
	// each.
	SchedulerConfig = sched.Config
	// SchedulerStats is a point-in-time view of the plane.
	SchedulerStats = sched.Stats
)

// NewScheduler starts a sharded tick scheduler; the zero config selects
// GOMAXPROCS shards with one worker each.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return sched.New(cfg) }

// WithScheduler makes NewRegistry pace its flows on a shared scheduler
// instead of a private one.
var WithScheduler = registry.WithScheduler

// NewLab returns an experiment engine with the given execution capacity
// (workers <= 0 selects one worker per core) on a private scheduler.
func NewLab(workers int) *Lab { return lab.NewEngine(workers) }

// NewLabOn returns an experiment engine running its trials on s — the
// unified-plane wiring, where one scheduler (and one capacity knob)
// governs flow pacing and experiments alike.
func NewLabOn(s *Scheduler) *Lab { return lab.NewEngineOn(s) }

// New materialises a flow and attaches the elasticity manager.
func New(spec Spec, opts Options) (*Manager, error) {
	return core.NewManager(spec, opts)
}

// NewRegistry returns an empty flow registry; pass WithScheduler to run
// its pacers on a shared execution plane.
func NewRegistry(opts ...registry.Option) *Registry { return registry.New(opts...) }

// NewBuilder starts a flow definition.
func NewBuilder(name string) *Builder { return flow.NewBuilder(name) }

// DefaultClickstream builds the paper's Fig. 1 click-stream flow with
// adaptive controllers on all three layers.
func DefaultClickstream(peak float64) (Spec, error) {
	return flow.DefaultClickstream(peak)
}

// DefaultAdaptive returns the wizard's default adaptive-controller
// configuration for a layer with allocations of magnitude scale.
var DefaultAdaptive = flow.DefaultAdaptive

// DecodeSpec parses and validates a JSON flow definition.
func DecodeSpec(data []byte) (Spec, error) { return flow.Decode(data) }
