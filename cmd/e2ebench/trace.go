package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// perLayerDefs are the per-layer metrics of a traced run, layer = module
// name. Counts are deltas of the daemon's own /v1/telemetry and
// /v1/scheduler output across the subprocess's open-loop phase; times come
// from the in-process plane's spans and from the ladder.
var perLayerDefs = []metricDef{
	{Name: "persist.append_p50_us", Unit: "us", Better: "lower"},
	{Name: "persist.append_p99_us", Unit: "us", Better: "lower"},
	{Name: "persist.write_us", Unit: "us", Better: "lower"},
	{Name: "persist.fsync_us", Unit: "us", Better: "lower"},
	{Name: "persist.fsyncs_per_record", Unit: "ratio", Better: "lower"},
	{Name: "persist.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "persist.append_failures", Unit: "count", Better: "lower"},
	{Name: "persist.checkpoints", Unit: "count", Better: "lower"},
	{Name: "persist.ckpt_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.resurrected_flows", Unit: "count", Better: "lower"},
	{Name: "registry.create_us", Unit: "us", Better: "lower"},
	{Name: "registry.tune_us", Unit: "us", Better: "lower"},
	{Name: "registry.pace_us", Unit: "us", Better: "lower"},
	{Name: "registry.delete_us", Unit: "us", Better: "lower"},
	{Name: "registry.advance_us", Unit: "us", Better: "lower"},
	{Name: "registry.advances", Unit: "count", Better: "higher"},
	{Name: "registry.pace_ticks", Unit: "count", Better: "higher"},
	{Name: "sched.fire_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "sched.fire_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "sched.run_p99_us", Unit: "us", Better: "lower"},
	{Name: "sched.late_runs", Unit: "count", Better: "lower"},
	{Name: "sched.skipped_ticks", Unit: "count", Better: "lower"},
	{Name: "sched.steals", Unit: "count", Better: "lower"},
	{Name: "sched.mean_batch", Unit: "count", Better: "higher"},
	{Name: "sched.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "sched.identity_gap", Unit: "count", Better: "lower"},
	{Name: "sim.step_us", Unit: "us", Better: "lower"},
	{Name: "sim.decisions", Unit: "count", Better: "lower"},
	{Name: "sim.violation_rate", Unit: "ratio", Better: "lower"},
	{Name: "sim.total_cost_usd", Unit: "usd", Better: "lower"},
	{Name: "metricstore.append_ns", Unit: "ns", Better: "lower"},
	{Name: "metricstore.appends", Unit: "count", Better: "higher"},
	{Name: "metricstore.appends_per_tick", Unit: "count", Better: "lower"},
	{Name: "metricstore.window_us", Unit: "us", Better: "lower"},
	{Name: "metricstore.compaction_copied_points", Unit: "count", Better: "lower"},
	{Name: "eventbus.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "eventbus.published", Unit: "count", Better: "higher"},
	{Name: "eventbus.dropped", Unit: "count", Better: "lower"},
	{Name: "eventbus.deliver_p99_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.handler_us.mutate", Unit: "us", Better: "lower"},
	{Name: "httpapi.handler_us.query", Unit: "us", Better: "lower"},
	{Name: "httpapi.handler_us.status", Unit: "us", Better: "lower"},
	{Name: "httpapi.sse_delay_p50_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.sse_delay_p99_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.resp_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "httpapi.gzip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "httpapi.errors_5xx", Unit: "count", Better: "lower"},
	{Name: "httpapi.in_flight_max", Unit: "count", Better: "lower"},
	{Name: "query.plan_us", Unit: "us", Better: "lower"},
	{Name: "query.exec_us", Unit: "us", Better: "lower"},
	{Name: "query.rows_per_query", Unit: "count", Better: "lower"},
	{Name: "query.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "query.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "telemetry.scrape_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.scrape_bytes", Unit: "B", Better: "lower"},
	{Name: "telemetry.scrape_allocs", Unit: "count", Better: "lower"},
	{Name: "client.rtt_overhead_us", Unit: "us", Better: "lower"},
	{Name: "client.watch_decode_us", Unit: "us", Better: "lower"},
	{Name: "proc.boundary_us", Unit: "us", Better: "lower"},
	{Name: "proc.goroutines_max", Unit: "count", Better: "lower"},
	{Name: "proc.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "load.req_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.tick_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.req_capacity_rps", Unit: "1/s", Better: "higher"},
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unexplained_us", Unit: "us", Better: "lower"},
}

// layersTable is one workload's reconciliation. On the request path each
// layer's self time is summed and held against the untraced req_p50. On
// the tick path tick_lag is lateness beyond each flow's best case, so the
// column that sums is each layer's median beyond its own best case; the
// self column is there to show where a tick's time goes.
type layersTable struct {
	request, tick []layerRow
	reqP50US      float64 // untraced in-process req_p50_ms
	tickP50US     float64 // untraced in-process tick_lag_p50_ms
	ladder        string
	traceFile     string
	spans         int
}

type layerRow struct {
	layer, source string
	selfUS        float64
	lateUS        float64 // tick path: median beyond the layer's best case
	n             int
}

func sumRows(rows []layerRow, late bool) float64 {
	s := 0.0
	for _, r := range rows {
		if late {
			s += r.lateUS
		} else {
			s += r.selfUS
		}
	}
	return s
}

func (l *layersTable) unexplainedUS() float64 { return l.reqP50US - sumRows(l.request, false) }

func (l *layersTable) print(w io.Writer) {
	section := func(title string, rows []layerRow, late bool, totalUS float64, what string) {
		fmt.Fprintf(w, "   layers: %s\n", title)
		fmt.Fprintf(w, "   %-26s %-8s %8s %12s", "layer", "source", "n", "self us")
		if late {
			fmt.Fprintf(w, " %12s", "late us")
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprintf(w, "   %-26s %-8s %8d %12.2f", r.layer, r.source, r.n, r.selfUS)
			if late {
				fmt.Fprintf(w, " %12.2f", r.lateUS)
			}
			fmt.Fprintln(w)
		}
		sum := sumRows(rows, late)
		rest := totalUS - sum
		flag := ""
		if totalUS > 0 && (rest > 0.15*totalUS || rest < -0.15*totalUS) {
			flag = "  <-- above 15 %: a finding, not a failure"
		}
		pad := ""
		if late {
			pad = fmt.Sprintf("%13s", "")
		}
		fmt.Fprintf(w, "   %-26s %-8s %8s %s%12.2f\n", "sum", "", "", pad, sum)
		fmt.Fprintf(w, "   %-26s %-8s %8s %s%12.2f\n", what, "", "", pad, totalUS)
		fmt.Fprintf(w, "   %-26s %-8s %8s %s%12.2f%s\n", "unexplained", "", "", pad, rest, flag)
	}
	section("request path (self time = span or rung minus what its children cover)", l.request, false, l.reqP50US, "untraced req_p50")
	section("tick path (late = median beyond the layer's own best case)", l.tick, true, l.tickP50US, "untraced tick_lag_p50")
	io.WriteString(w, l.ladder)
	fmt.Fprintf(w, "   %d spans written to %s\n", l.spans, l.traceFile)
}

// requestLayers computes per-layer self times from the spans of one phase:
// client minus the handler it waited for, handler minus the WAL appends it
// made, and the appends themselves.
func requestLayers(spans []span) (clientUS, handlerUS, persistUS []float64) {
	type req struct{ client, handler, persist float64 }
	byID := map[string]*req{}
	get := func(id string) *req {
		r := byID[id]
		if r == nil {
			r = &req{}
			byID[id] = r
		}
		return r
	}
	for _, s := range spans {
		if s.Req == "" {
			continue
		}
		d := float64(s.End-s.Start) / 1e3
		switch s.Name {
		case "client":
			get(s.Req).client = d
		case "httpapi":
			get(s.Req).handler = d
		case "persist":
			get(s.Req).persist += d
		}
	}
	for _, r := range byID {
		if r.client == 0 || r.handler == 0 {
			continue
		}
		clientUS = append(clientUS, r.client-r.handler)
		handlerUS = append(handlerUS, r.handler-r.persist)
		persistUS = append(persistUS, r.persist)
	}
	return clientUS, handlerUS, persistUS
}

func spanDurationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// classShare is the share of a phase's requests whose class has prefix.
func classShare(ps *phaseStats, prefix string) float64 {
	n := 0
	for _, s := range ps.samples {
		if strings.HasPrefix(s.class, prefix) {
			n++
		}
	}
	return ratio(float64(n), float64(len(ps.samples)))
}

// runTraced is the per-layer run of one workload: a flowerd subprocess for
// the counts, the in-process plane once without and once with spans for
// the times, the ladder for the layers without a seam. The measured
// seconds are split in three open-loop phases; only the subprocess gets a
// short closed-loop phase, for load.req_capacity_rps.
func runTraced(ctx context.Context, e *env, cfg runConfig, traceOut string) (*outcome, error) {
	third := ((cfg.open + cfg.closed) / 3).Truncate(wallTick)
	if third < 2*wallTick {
		third = 2 * wallTick
	}
	cfg.open, cfg.closed, cfg.setups, cfg.scrape = third, min(cfg.closed, 2*time.Second), 1, true
	cfg.warm = min(cfg.warm, time.Second)

	out := &outcome{workload: cfg.size.name, seed: cfg.seed, values: map[string]float64{}, summaries: map[string]summary{}}
	v := out.values

	// --- the subprocess: counts, stream delays, the recovery check ---
	p, err := newPlan(cfg.size, cfg.seed, cfg.gens)
	if err != nil {
		return nil, err
	}
	defer p.close()
	s, err := setUpDaemon(ctx, e, p, cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	sub, err := applyLoad(ctx, s.t, p, cfg, s.conns, nil)
	if err != nil {
		return nil, err
	}
	subM := foldEndToEnd(sub, s.setupS)
	out.attempted, out.failed, out.notes = subM.attempted, subM.failed, subM.notes
	out.genLateMS = subM.genLateMS
	foldCounts(v, p, sub)
	for _, name := range loadNames {
		v[name] = subM.values[name]
	}

	want := p.expected()
	s.t.kill()
	recov, err := checkRecovery(ctx, e.bin, s.dataDir, want)
	if err != nil {
		return nil, err
	}
	out.failures = append(out.failures, recov.failures...)
	out.findings = recov.findings()
	v["persist.recover_ms"] = recov.ms
	v["persist.resurrected_flows"] = float64(len(recov.resurrected))

	// The ladder wants the box quiet: the loaded daemon is gone, the
	// in-process plane not yet up.
	rungs, err := runLadder(ctx, cfg.ladder, e.bin, e.dir, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for k, x := range rungs {
		if unitOf(k) != "" {
			v[k] = x
		}
	}
	if v["query.rows_per_query"] == 0 { // the daemon served no queries: the ladder's count stands in
		v["query.rows_per_query"] = rungs["ladder.rows_per_query"]
	}

	// --- the in-process plane: the same plan from scratch, spans off, then on ---
	rec := newRecorder()
	ip, err := newPlan(cfg.size, cfg.seed, cfg.gens)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	planeDir, err := os.MkdirTemp(e.dir, "inproc-")
	if err != nil {
		return nil, err
	}
	t, plane, err := startInProcess(planeDir, rec, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	defer t.kill()
	conns := make([]*conn, cfg.gens)
	for g := range conns {
		conns[g] = t.newConn()
		defer conns[g].close()
	}
	if err := setUp(ctx, ip, conns); err != nil {
		return nil, fmt.Errorf("in-process set-up: %w", err)
	}
	cfg.scrape, cfg.closed = false, 0
	plain, err := applyLoad(ctx, t, ip, cfg, conns, watchSpans(rec))
	if err != nil {
		return nil, fmt.Errorf("in-process untraced phase: %w", err)
	}
	plane.tap.take()
	rec.on.Store(true)
	cfg.warm = 0
	traced, err := applyLoad(ctx, t, ip, cfg, conns, watchSpans(rec))
	rec.on.Store(false)
	if err != nil {
		return nil, fmt.Errorf("in-process traced phase: %w", err)
	}
	plainM, tracedM := foldEndToEnd(plain, nil), foldEndToEnd(traced, nil)
	out.attempted += plainM.attempted + tracedM.attempted
	out.failed += plainM.failed + tracedM.failed
	out.notes = append(out.notes, plainM.notes...)
	out.genLateMS = max(out.genLateMS, plainM.genLateMS, tracedM.genLateMS)

	ckptMS, err := plane.checkpointMS()
	if err != nil {
		return nil, fmt.Errorf("in-process checkpoint: %w", err)
	}
	v["persist.ckpt_ms"] = ckptMS
	appends := summarize(plane.wal.durations())
	v["persist.append_p50_us"], v["persist.append_p99_us"] = appends.P50, appends.P99
	out.summaries["persist.append_us"] = appends
	v["eventbus.deliver_p99_us"] = summarize(plane.tap.take()).P99
	lagsUS, schedSpans := plane.fireLags()
	fire := summarize(lagsUS)
	v["sched.fire_lag_p50_us"], v["sched.fire_lag_p99_us"] = fire.P50, fire.P99
	out.summaries["sched.fire_lag_us"] = fire
	v["bench.gen_late_p99_ms"] = out.genLateMS
	plainP50, tracedP50 := plainM.summaries["req_ms"].P50, tracedM.summaries["req_ms"].P50
	v["trace.overhead_pct"] = 100 * ratio(tracedP50-plainP50, plainP50)

	spans := append(rec.snapshot(), schedSpans...)
	tbl := buildLayers(v, spans, traced.openStats, cfg.ladder)
	tbl.reqP50US, tbl.tickP50US = 1e3*plainP50, 1e3*plainM.summaries["tick_lag_ms"].P50
	tbl.ladder = ladderText(rungs)
	v["trace.unexplained_us"] = tbl.unexplainedUS()

	if traceOut == "" {
		traceOut = filepath.Join(buildDir(e.root), "trace.json")
	}
	if err := writeTrace(traceOut, cfg.size.name, cfg.seed, spans); err != nil {
		return nil, fmt.Errorf("write %s: %w", traceOut, err)
	}
	tbl.traceFile, tbl.spans = traceOut, len(spans)
	out.layers = tbl
	return out, nil
}

// buildLayers turns the traced phase's spans and the ladder's rungs (in v)
// into the two layers tables. The handler's span covers the registry call
// and, on query routes, plan and execution; the ladder's rungs split those
// out, weighted by each class's share of the phase's requests.
func buildLayers(v map[string]float64, spans []span, phase *phaseStats, ladder ladderSize) *layersTable {
	clientUS, handlerUS, persistUS := requestLayers(spans)
	registryUS := 0.0
	for _, class := range []string{"create", "tune", "pace", "delete"} {
		registryUS += classShare(phase, class) * v["registry."+class+"_us"]
	}
	queryUS := classShare(phase, "query.") * (v["query.plan_us"] + v["query.exec_us"])
	bus, watch := summarize(spanDurationsUS(spans, "eventbus")), summarize(spanDurationsUS(spans, "httpapi.watch"))
	fire := v["sched.fire_lag_p50_us"]
	return &layersTable{
		request: []layerRow{
			{layer: "client", source: "span", selfUS: median(clientUS), n: len(clientUS)},
			{layer: "httpapi", source: "span", selfUS: median(handlerUS) - registryUS - queryUS, n: len(handlerUS)},
			{layer: "registry", source: "ladder", selfUS: registryUS, n: ladder.n / 2},
			{layer: "query", source: "ladder", selfUS: queryUS, n: ladder.n / 2},
			{layer: "persist", source: "span", selfUS: median(persistUS), n: len(persistUS)},
		},
		tick: []layerRow{
			{layer: "sched", source: "span", selfUS: fire, lateUS: fire, n: len(spanDurationsUS(spans, "sched"))},
			{layer: "registry.advance", source: "ladder", selfUS: v["registry.advance_us"], n: ladder.n},
			{layer: "sim (incl. metricstore)", source: "ladder", selfUS: v["sim.step_us"], n: ladder.n},
			{layer: "eventbus", source: "span", selfUS: bus.P50, lateUS: bus.P50 - bus.Best, n: bus.N},
			{layer: "httpapi (stream)", source: "span", selfUS: watch.P50 - bus.P50, lateUS: (watch.P50 - watch.Best) - (bus.P50 - bus.Best), n: watch.N},
		},
	}
}

// foldCounts fills the count-type per-layer metrics from the daemon's own
// accounting across the subprocess's open-loop phase, plus what the
// watcher and the sampler saw.
func foldCounts(v map[string]float64, p *plan, r *loadResult) {
	b, a := r.before.tel, r.after.tel
	delta := func(name string, match map[string]string) float64 { return telDelta(b, a, name, match) }

	// Lifetime totals for the log: a fleet or read run appends only during
	// set-up, before the first scrape.
	v["persist.bytes_per_record"] = ratio(telValue(a, "flower_persist_wal_bytes_total", nil), telValue(a, "flower_persist_wal_records_total", nil))
	v["persist.append_failures"] = telValue(a, "flower_persist_wal_append_failures_total", nil)
	v["persist.checkpoints"] = telValue(a, "flower_persist_wal_checkpoints_total", nil)

	v["registry.advances"] = delta("flower_registry_advances_total", nil)
	v["registry.pace_ticks"] = delta("flower_registry_pace_ticks_total", nil)

	run := telHistDelta(b, a, "flower_sched_run_seconds", map[string]string{"class": "flow"})
	v["sched.run_p99_us"] = histQuantileUS(run, 0.99)
	v["sched.late_runs"] = float64(r.after.sched.LateRuns - r.before.sched.LateRuns)
	v["sched.skipped_ticks"] = float64(r.after.sched.SkippedTicks - r.before.sched.SkippedTicks)
	v["sched.steals"] = float64(r.after.sched.Steals - r.before.sched.Steals)
	v["sched.mean_batch"] = ratio(float64(r.after.sched.BatchJobs-r.before.sched.BatchJobs), float64(r.after.sched.Batches-r.before.sched.Batches))
	v["sched.queue_depth_max"] = r.peaks.queueDepth
	v["sched.identity_gap"], _ = identityGap(p, r)

	v["sim.decisions"] = float64(r.ticks.decisions)

	v["metricstore.appends"] = delta("flower_store_appends_total", nil)
	v["metricstore.appends_per_tick"] = ratio(v["metricstore.appends"], v["registry.advances"])
	v["metricstore.compaction_copied_points"] = delta("flower_store_compaction_copied_points_total", nil)

	v["eventbus.published"] = delta("flower_eventbus_publishes_total", nil)
	v["eventbus.dropped"] = delta("flower_eventbus_dropped_total", nil)

	sse := summarize(r.ticks.sseDelayUS)
	v["httpapi.sse_delay_p50_us"], v["httpapi.sse_delay_p99_us"] = sse.P50, sse.P99
	v["httpapi.resp_bytes_per_req"] = ratio(delta("flower_http_response_bytes_total", nil), delta("flower_http_requests_total", nil))
	v["httpapi.gzip_ratio"] = ratio(delta("flower_http_gzip_uncompressed_bytes_total", nil), delta("flower_http_gzip_compressed_bytes_total", nil))
	v["httpapi.errors_5xx"] = delta("flower_http_requests_total", map[string]string{"code": "5"})
	v["httpapi.in_flight_max"] = r.peaks.inFlight

	queries := delta("flower_query_queries_total", nil)
	v["query.rows_per_query"] = ratio(delta("flower_query_rows_total", nil), queries)
	hits := delta("flower_query_plan_cache_hits_total", nil)
	v["query.plan_cache_hit_ratio"] = ratio(hits, hits+delta("flower_query_plan_cache_misses_total", nil))

	v["proc.goroutines_max"] = r.peaks.goroutines
	v["proc.heap_mb"] = r.heapMB
}
