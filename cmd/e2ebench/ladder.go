package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/core"
	"repro/internal/eventbus"
	"repro/internal/flow"
	"repro/internal/httpapi"
	"repro/internal/lab"
	"repro/internal/metricstore"
	"repro/internal/persist"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

// The ladder times the layers that offer no seam to hang a span on, by
// calling their public functions directly with inputs drawn from the
// workload's own generators: each rung contains the one below, so a
// layer's self time is its rung minus what its child covers. Rungs that
// fsync run syncN times (an fsync costs ~0.4 ms here and the traced run has
// a time budget), the rest n times.
type ladderSize struct{ n, syncN int }

var fullLadder = ladderSize{n: 2000, syncN: 400}

// timingWriter is a persist.SyncWriter over a real file that times every
// write and every fsync separately.
type timingWriter struct {
	f               *os.File
	writeUS, syncUS []float64
}

func (w *timingWriter) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := w.f.Write(b)
	w.writeUS = append(w.writeUS, float64(time.Since(start))/1e3)
	return n, err
}

func (w *timingWriter) Sync() error {
	start := time.Now()
	err := w.f.Sync()
	w.syncUS = append(w.syncUS, float64(time.Since(start))/1e3)
	return err
}

func (w *timingWriter) Close() error { return w.f.Close() }

func timeUS(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / 1e3
}

// mallocs counts heap allocations of fn; the ladder runs alone, so other
// goroutines add next to nothing.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// ladderInputs are requests drawn from the workload's generators under
// the run's seed, whatever the workload's own mix weights are: every
// workload's ladder climbs the same rungs.
type ladderInputs struct {
	defs    []flowDef // flows of the ladder's own registry, advanced preAdvance
	tunes   []tuneInput
	queries []string // scan, fan-out and join pipelines over defs
}

type tuneInput struct {
	kind          flow.LayerKind
	ref, deadBand *float64
	window        *time.Duration
	body          []byte // the same tuning as the HTTP route takes it
}

func newLadderInputs(seed int64) ladderInputs {
	rng := newRNG(seed, 0x6c61)
	in := ladderInputs{defs: makeDefs(rng, "lad-ru-", 8)}
	for i := 0; i < 64; i++ {
		ref := 40 + float64(rng.IntN(91))/2
		win := time.Duration(1+rng.IntN(4)) * time.Minute
		db := 2 + float64(rng.IntN(17))/2
		ws := win.String()
		body, _ := json.Marshal(apiv1.TuneRequest{Ref: &ref, Window: &ws, DeadBand: &db}) // plain struct
		in.tunes = append(in.tunes, tuneInput{kind: flow.LayerKind(layerKinds[rng.IntN(len(layerKinds))]), ref: &ref, deadBand: &db, window: &win, body: body})
	}
	rg := &readGen{rng: rng, still: in.defs, stillGlob: "lad-ru-*"}
	for len(in.queries) < 64 {
		m := readMetrics[rng.IntN(len(readMetrics))]
		switch rng.IntN(4) {
		case 0:
			in.queries = append(in.queries, fmt.Sprintf("select flow=%s ns=%s name=%s | window 6h | agg max", rg.stillGlob, m.ns, m.name))
		case 1:
			in.queries = append(in.queries, fmt.Sprintf("select flow=%s ns=Analytics/Compute name=ExecuteLatencyMs | window 1h | resample 1m p99 | join 1m l/r (select flow=%s ns=Analytics/Compute name=VMCount | resample 1m avg) | topk 5", rg.stillGlob, rg.stillGlob))
		default:
			f, _ := rg.pick()
			in.queries = append(in.queries, scanQuery(f.ID, m, readWindows[rng.IntN(len(readWindows))], "1m", readStats[rng.IntN(len(readStats))]))
		}
	}
	return in
}

// simOutcome is the paper's outcome numbers over defs, each advanced
// preAdvance under control: mean violation rate and total cost. Flows are
// seeded deterministic simulations, so the pair is exact under a seed and
// a change that moves it changed the controller's decisions.
func simOutcome(defs []flowDef) (violationRate, totalCostUSD float64, err error) {
	for _, d := range defs {
		spec, err := flow.DefaultClickstream(d.Peak)
		if err != nil {
			return 0, 0, err
		}
		m, err := core.NewManager(spec, sim.Options{Seed: d.Seed})
		if err != nil {
			return 0, 0, err
		}
		res, err := m.Run(preAdvance)
		if err != nil {
			return 0, 0, err
		}
		violationRate += res.ViolationRate / float64(len(defs))
		totalCostUSD += res.TotalCost
	}
	return violationRate, totalCostUSD, nil
}

// runLadder climbs every rung on an otherwise quiet box and returns
// medians by name. bin is flowerd, for the top rung: the SDK against an
// idle subprocess.
func runLadder(ctx context.Context, size ladderSize, bin, dir string, seed int64) (map[string]float64, error) {
	ladderN, ladderSyncN := size.n, size.syncN
	out := map[string]float64{}
	in := newLadderInputs(seed)
	dir, err := os.MkdirTemp(dir, "ladder-")
	if err != nil {
		return nil, err
	}

	// --- persist: WAL over a timing writer, then the ControlLog ---
	f, err := os.OpenFile(filepath.Join(dir, "ladder.wal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	tw := &timingWriter{f: f}
	wal := persist.NewWAL(tw, persist.WALOptions{})
	var appendUS []float64
	for i := 0; i < ladderSyncN; i++ {
		t := in.tunes[i%len(in.tunes)]
		ns := int64(*t.window)
		op := persist.FlowTuneOp{ID: in.defs[i%len(in.defs)].ID, Layer: string(t.kind), Ref: t.ref, DeadBand: t.deadBand, WindowNS: &ns}
		var aerr error
		appendUS = append(appendUS, timeUS(func() { _, aerr = wal.Append("flow.tune", op) }))
		if aerr != nil {
			return nil, aerr
		}
	}
	syncs := len(tw.syncUS) // Close adds one more
	if err := wal.Close(); err != nil {
		return nil, err
	}
	out["persist.write_us"] = median(tw.writeUS)
	out["persist.fsync_us"] = median(tw.syncUS[:syncs])
	out["persist.fsyncs_per_record"] = ratio(float64(syncs), float64(len(tw.writeUS)))
	out["ladder.wal_append_us"] = median(appendUS)

	clog, _, err := persist.OpenControlLog(filepath.Join(dir, "ladder-sync"), persist.ControlLogOptions{})
	if err != nil {
		return nil, err
	}
	var clogUS []float64
	for i := 0; i < ladderSyncN; i++ {
		t := in.tunes[i%len(in.tunes)]
		var aerr error
		clogUS = append(clogUS, timeUS(func() { aerr = clog.FlowTuned(in.defs[i%len(in.defs)].ID, t.kind, t.ref, t.deadBand, t.window) }))
		if aerr != nil {
			return nil, aerr
		}
	}
	if err := clog.Close(); err != nil {
		return nil, err
	}
	out["ladder.controllog_us"] = median(clogUS)

	// --- registry: lifecycle calls over a no-sync log whose child time the
	// decorator reports per call, so self = call − its own WAL append ---
	fast, _, err := persist.OpenControlLog(filepath.Join(dir, "ladder-nosync"), persist.ControlLogOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer fast.Close()
	child := &spanWAL{inner: fast}
	reg := registry.New()
	defer reg.Close()
	reg.SetWAL(child)
	var still []*registry.Flow
	for _, d := range in.defs {
		spec, err := flow.DefaultClickstream(d.Peak)
		if err != nil {
			return nil, err
		}
		fl, err := reg.Create(d.ID, spec, sim.Options{Seed: d.Seed})
		if err != nil {
			return nil, err
		}
		if _, err := fl.Advance(preAdvance); err != nil {
			return nil, err
		}
		still = append(still, fl)
	}
	if out["sim.violation_rate"], out["sim.total_cost_usd"], err = simOutcome(in.defs); err != nil {
		return nil, err
	}
	self := func(fn func() error) (float64, error) {
		var err error
		total := timeUS(func() { err = fn() })
		return total - child.last(), err
	}
	var createUS, tuneUS, paceUS, deleteUS []float64
	churnSpec, err := flow.DefaultClickstream(1500)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ladderN/2; i++ {
		id := fmt.Sprintf("lad-m-%05d", i)
		t := in.tunes[i%len(in.tunes)]
		var fl *registry.Flow
		us, err := self(func() (e error) { fl, e = reg.Create(id, churnSpec, sim.Options{Seed: int64(i + 1)}); return })
		if err != nil {
			return nil, err
		}
		createUS = append(createUS, us)
		if us, err = self(func() error { _, e := fl.Tune(t.kind, t.ref, t.deadBand, t.window); return e }); err != nil {
			return nil, err
		}
		tuneUS = append(tuneUS, us)
		if us, err = self(func() error { return fl.StartPacing(paceRate, wallTick) }); err != nil {
			return nil, err
		}
		paceUS = append(paceUS, us)
		if us, err = self(func() error { return reg.Delete(id) }); err != nil {
			return nil, err
		}
		deleteUS = append(deleteUS, us)
	}
	out["registry.create_us"] = median(createUS)
	out["registry.tune_us"] = median(tuneUS)
	out["registry.pace_us"] = median(paceUS)
	out["registry.delete_us"] = median(deleteUS)

	// --- tick path: Handle.Append → Manager.Run(one step) → Flow.Advance ---
	store := metricstore.NewStore()
	h, err := store.Handle("Ladder", "Value", map[string]string{"k": "v"})
	if err != nil {
		return nil, err
	}
	t0 := time.Unix(1_500_000_000, 0)
	appends := 20 * ladderN
	out["metricstore.append_ns"] = 1e3 * timeUS(func() {
		for i := 0; i < appends; i++ {
			h.MustAppend(t0.Add(time.Duration(i)*time.Second), float64(i))
		}
	}) / float64(appends)
	var windowUS []float64
	for i := 0; i < ladderN; i++ {
		from := t0.Add(time.Duration(i%1000) * time.Second)
		windowUS = append(windowUS, timeUS(func() {
			_ = h.Window(metricstore.WindowQuery{From: from, To: from.Add(2 * time.Hour), Period: time.Minute, Stat: timeseries.AggMean})
		}))
	}
	out["metricstore.window_us"] = median(windowUS)

	var stepUS, advanceUS []float64
	for i := 0; i < ladderN; i++ {
		fl := still[i%len(still)]
		var rerr error
		step := func() {
			fl.View(func(m *core.Manager) { stepUS = append(stepUS, timeUS(func() { _, rerr = m.Run(simStep) })) })
		}
		advance := func() { advanceUS = append(advanceUS, timeUS(func() { _, rerr = fl.Advance(simStep) })) }
		// Whichever call comes second finds the flow's state in cache, so
		// the order alternates.
		if i%2 == 0 {
			step()
			advance()
		} else {
			advance()
			step()
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	out["sim.step_us"] = median(stepUS)
	out["ladder.advance_us"] = median(advanceUS)
	out["registry.advance_us"] = median(advanceUS) - median(stepUS)

	bus := eventbus.New(0)
	sub0 := bus.Subscribe(4096, eventbus.Live, nil)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub0.Events() {
		}
	}()
	payload := registry.FlowAdvanced{ID: "lad", Advanced: "10s", SimTime: t0, Ticks: 1}
	out["eventbus.publish_ns"] = 1e3 * timeUS(func() {
		for i := 0; i < 10*ladderN; i++ {
			bus.Publish(registry.EventFlowAdvanced, "lad", payload)
		}
	}) / float64(10*ladderN)
	sub0.Close()
	<-drained

	// --- query: Prepare → Run on the ladder's registry ---
	src := query.FromRegistry(reg)
	var planUS, execUS []float64
	rows := 0
	allocs := mallocs(func() {
		for i := 0; i < ladderN/2; i++ {
			q := in.queries[i%len(in.queries)]
			var pl *query.Plan
			var perr error
			planUS = append(planUS, timeUS(func() { pl, perr = query.Prepare(src, q, nil) }))
			if perr != nil {
				err = perr
				return
			}
			var res *query.Result
			execUS = append(execUS, timeUS(func() { res, perr = pl.Run() }))
			if perr != nil {
				err = perr
				return
			}
			rows += res.Rows
		}
	})
	if err != nil {
		return nil, fmt.Errorf("ladder query: %w", err)
	}
	out["query.plan_us"] = median(planUS)
	out["query.exec_us"] = median(execUS)
	out["query.allocs_per_query"] = allocs / float64(len(planUS))
	out["ladder.rows_per_query"] = float64(rows) / float64(len(planUS))

	// --- httpapi: Server.ServeHTTP on a recorder ---
	eng := lab.NewEngineOn(reg.Scheduler())
	defer eng.Close()
	srv := httpapi.NewServer(reg, httpapi.WithLab(eng))
	defer srv.Close()
	serve := func(method, path string, body []byte) (float64, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		return timeUS(func() { srv.ServeHTTP(rr, req) }), rr
	}
	var httpTuneUS, httpQueryUS, httpStatusUS []float64
	for i := 0; i < ladderN; i++ {
		d := in.defs[i%len(in.defs)]
		t := in.tunes[i%len(in.tunes)]
		us, rr := serve(http.MethodPost, "/v1/flows/"+d.ID+"/layers/"+string(t.kind)+"/controller", t.body)
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("ladder tune: status %d: %s", rr.Code, rr.Body.String())
		}
		httpTuneUS = append(httpTuneUS, us-child.last())
		us, rr = serve(http.MethodGet, "/v1/flows/"+d.ID+"/status", nil)
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("ladder status: status %d", rr.Code)
		}
		httpStatusUS = append(httpStatusUS, us)
		if i%2 == 0 {
			body, _ := json.Marshal(apiv1.QueryRequest{Q: in.queries[i/2%len(in.queries)]}) // plain struct
			us, rr = serve(http.MethodPost, "/v1/query", body)
			var resp apiv1.QueryResponse
			if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &resp) != nil {
				return nil, fmt.Errorf("ladder query route: status %d", rr.Code)
			}
			httpQueryUS = append(httpQueryUS, us-float64(resp.Stats.PlanNanos+resp.Stats.ExecNanos)/1e3)
		}
	}
	out["httpapi.handler_us.mutate"] = median(httpTuneUS) - out["registry.tune_us"]
	out["httpapi.handler_us.query"] = median(httpQueryUS)
	out["httpapi.handler_us.status"] = median(httpStatusUS)

	var scrapeUS []float64
	var scrapeBytes int
	scrapeAllocs := mallocs(func() {
		for i := 0; i < ladderN/10; i++ {
			us, rr := serve(http.MethodGet, "/v1/telemetry?format=prom", nil)
			scrapeUS = append(scrapeUS, us)
			scrapeBytes = rr.Body.Len()
		}
	})
	out["telemetry.scrape_us"] = median(scrapeUS)
	out["telemetry.scrape_bytes"] = float64(scrapeBytes)
	out["telemetry.scrape_allocs"] = scrapeAllocs / float64(len(scrapeUS))

	// --- client: one watch record decoded as the SDK and watcher do ---
	line, _ := json.Marshal(apiv1.Event{ID: "f12345", Type: apiv1.EventFlowAdvanced, Topic: "lad", At: t0, Data: mustJSON(payload)}) // plain struct
	var decodeUS []float64
	for i := 0; i < ladderN; i++ {
		decodeUS = append(decodeUS, timeUS(func() {
			var ev apiv1.Event
			var p advancedPayload
			if json.Unmarshal(line, &ev) == nil {
				_ = json.Unmarshal(ev.Data, &p)
			}
		}))
	}
	out["client.watch_decode_us"] = median(decodeUS)

	// --- SDK over loopback, then SDK to the subprocess: the same GET ---
	ts := httptest.NewServer(srv)
	defer ts.Close()
	loop := (&target{base: ts.URL}).newConn()
	defer loop.close()
	var loopUS []float64
	for i := 0; i < ladderN/2; i++ {
		id := in.defs[i%len(in.defs)].ID
		var rerr error
		loopUS = append(loopUS, timeUS(func() { _, rerr = loop.c.Status(ctx, id) }))
		if rerr != nil {
			return nil, fmt.Errorf("ladder sdk loopback: %w", rerr)
		}
	}
	out["ladder.sdk_loopback_us"] = median(loopUS)
	out["client.rtt_overhead_us"] = median(loopUS) - median(httpStatusUS)

	idle, err := startDaemon(bin, filepath.Join(dir, "idle"))
	if err != nil {
		return nil, fmt.Errorf("ladder subprocess: %w", err)
	}
	defer idle.kill()
	sub := idle.newConn()
	defer sub.close()
	var procUS []float64
	for i := 0; i < ladderN/2; i++ {
		var rerr error
		procUS = append(procUS, timeUS(func() { _, rerr = sub.c.Status(ctx, "clickstream") })) // flowerd's own boot flow
		if rerr != nil {
			return nil, fmt.Errorf("ladder sdk subprocess: %w", rerr)
		}
	}
	out["ladder.sdk_subprocess_us"] = median(procUS)
	out["proc.boundary_us"] = median(procUS) - median(loopUS)
	return out, nil
}

func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only ever called on the bench's own plain structs
	}
	return data
}

// ladderText renders the rungs for the report.
func ladderText(v map[string]float64) string {
	var b strings.Builder
	row := func(label, key string) { fmt.Fprintf(&b, "   %-44s %10.2f us\n", label, v[key]) }
	b.WriteString("   ladder (median per call; each rung contains the one above it)\n")
	row("mutate: WAL write", "persist.write_us")
	row("mutate: WAL fsync", "persist.fsync_us")
	row("mutate: persist.WAL.Append", "ladder.wal_append_us")
	row("mutate: ControlLog.FlowTuned", "ladder.controllog_us")
	row("mutate: + Flow.Tune (self)", "registry.tune_us")
	row("mutate: + Server.ServeHTTP (self)", "httpapi.handler_us.mutate")
	row("tick: Manager.Run(one step)", "sim.step_us")
	row("tick: Flow.Advance(one step)", "ladder.advance_us")
	row("read: query.Prepare", "query.plan_us")
	row("read: Plan.Run", "query.exec_us")
	row("read: + Server.ServeHTTP (self)", "httpapi.handler_us.query")
	row("status: Server.ServeHTTP on a recorder", "httpapi.handler_us.status")
	row("status: SDK over loopback", "ladder.sdk_loopback_us")
	row("status: SDK to the subprocess", "ladder.sdk_subprocess_us")
	return b.String()
}
