package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"

	apiv1 "repro/api/v1"
	"repro/client"
	"repro/internal/flow"
	"repro/internal/query"
	"repro/internal/registry"
	"repro/internal/sim"
)

// The seed fixes flow ids, peaks, simulation seeds, knob values and the
// order of requests; the daemon only ever sees the generated requests.
// Every generator below is driven by one goroutine, so the models need no
// locks; each owns its flows, so two connections never race on one flow.

// flowDef is one flow as the generator asks the daemon to create it.
type flowDef struct {
	ID   string
	Peak float64
	Seed int64
}

// flowModel is the generator's record of acknowledged mutations on one
// flow: what the daemon must still hold after a SIGKILL and restart.
type flowModel struct {
	def   flowDef
	paced bool
	tunes map[string]*tuneModel // layer kind -> last acknowledged knobs
	iv    int                   // churn pool: index of the open pacing interval
}

type tuneModel struct {
	ref, deadBand *float64
	window        *string
}

// conn is one request connection: the SDK client plus the raw HTTP client
// under it (the Prometheus scrape has no SDK method).
type conn struct {
	c    *client.Client
	hc   *http.Client
	base string
}

// op is one generated request. run sends it through the SDK, checks the
// answer and, when it was a mutation, records the acknowledgement.
type op struct {
	class string // request class, e.g. "tune", "query.scan", "status"
	flow  string // flow the request mutates, for span parenting ("" if none)
	run   func(ctx context.Context, cn *conn) error
}

func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

func makeDefs(rng *rand.Rand, prefix string, n int) []flowDef {
	out := make([]flowDef, n)
	for i := range out {
		out[i] = flowDef{
			ID:   fmt.Sprintf("%s%04d", prefix, i),
			Peak: float64(500 + rng.IntN(2501)),
			Seed: int64(1 + rng.IntN(1<<30)),
		}
	}
	return out
}

func createOp(def flowDef, paceNow float64, ack func()) op {
	return op{class: "create", flow: def.ID, run: func(ctx context.Context, cn *conn) error {
		sum, err := cn.c.CreateFlow(ctx, apiv1.CreateFlowRequest{ID: def.ID, Peak: def.Peak, Seed: def.Seed, Pace: paceNow})
		if err != nil {
			return err
		}
		if sum.ID != def.ID || sum.Paced != (paceNow > 0) {
			return fmt.Errorf("create %s: got id %q paced %v", def.ID, sum.ID, sum.Paced)
		}
		if ack != nil {
			ack()
		}
		return nil
	}}
}

func advanceOp(id string, d time.Duration) op {
	return op{class: "advance", flow: id, run: func(ctx context.Context, cn *conn) error {
		res, err := cn.c.Advance(ctx, id, d)
		if err != nil {
			return err
		}
		if want := int(d / simStep); res.Ticks != want {
			return fmt.Errorf("advance %s: %d ticks, want %d", id, res.Ticks, want)
		}
		return nil
	}}
}

func paceOp(id string, on bool, ack func()) op {
	return op{class: "pace", flow: id, run: func(ctx context.Context, cn *conn) error {
		p := 0.0
		if on {
			p = paceRate
		}
		st, err := cn.c.SetPace(ctx, id, p, wallTick)
		if err != nil {
			return err
		}
		if st.Running != on {
			return fmt.Errorf("pace %s: running %v, want %v", id, st.Running, on)
		}
		if ack != nil {
			ack()
		}
		return nil
	}}
}

// --- control-plane churn ---

// mutGen produces lifecycle traffic over a rolling pool of flows it alone
// owns: 18 % create, 40 % tune, 24 % pace start/stop, 18 % delete, with
// create and delete swapped at the pool's bounds so no request can fail.
type mutGen struct {
	rng      *rand.Rand
	prefix   string
	created  int
	pool     []*flowModel
	min, max int
	paced    []pacedInterval // when pool flows were paced, for the scheduler identity
}

var layerKinds = []string{string(flow.Ingestion), string(flow.Analytics), string(flow.Storage)}

func newMutGen(seed int64, prefix string, start, min, max int) *mutGen {
	g := &mutGen{rng: newRNG(seed, 0x6d75), prefix: prefix, min: min, max: max}
	for i := 0; i < start; i++ {
		g.pool = append(g.pool, &flowModel{def: g.newDef(), tunes: map[string]*tuneModel{}})
	}
	return g
}

func (g *mutGen) newDef() flowDef {
	g.created++
	return flowDef{
		ID:   fmt.Sprintf("%s%06d", g.prefix, g.created),
		Peak: float64(500 + g.rng.IntN(2501)),
		Seed: int64(1 + g.rng.IntN(1<<30)),
	}
}

// setup returns the creates for the initial pool.
func (g *mutGen) setup() []op {
	ops := make([]op, len(g.pool))
	for i, m := range g.pool {
		ops[i] = createOp(m.def, 0, nil)
	}
	return ops
}

func (g *mutGen) next() op {
	roll := g.rng.IntN(100)
	switch {
	case roll < 18 && len(g.pool) < g.max, roll >= 82 && len(g.pool) <= g.min:
		m := &flowModel{def: g.newDef(), tunes: map[string]*tuneModel{}}
		return createOp(m.def, 0, func() { g.pool = append(g.pool, m) })
	case roll < 18 || roll >= 82:
		i := g.rng.IntN(len(g.pool))
		m := g.pool[i]
		return op{class: "delete", flow: m.def.ID, run: func(ctx context.Context, cn *conn) error {
			if err := cn.c.DeleteFlow(ctx, m.def.ID); err != nil {
				return err
			}
			if m.paced {
				g.paced[m.iv].to = time.Now()
			}
			g.pool[i] = g.pool[len(g.pool)-1]
			g.pool = g.pool[:len(g.pool)-1]
			return nil
		}}
	case roll < 58:
		m := g.pool[g.rng.IntN(len(g.pool))]
		kind := layerKinds[g.rng.IntN(len(layerKinds))]
		req := apiv1.TuneRequest{}
		ref := 40 + float64(g.rng.IntN(91))/2
		req.Ref = &ref
		if g.rng.IntN(2) == 0 {
			w := fmt.Sprintf("%dm0s", 1+g.rng.IntN(4))
			req.Window = &w
		}
		if g.rng.IntN(2) == 0 {
			db := 2 + float64(g.rng.IntN(17))/2
			req.DeadBand = &db
		}
		return op{class: "tune", flow: m.def.ID, run: func(ctx context.Context, cn *conn) error {
			got, err := cn.c.TuneController(ctx, m.def.ID, kind, req)
			if err != nil {
				return err
			}
			if got.Ref != ref || (req.Window != nil && got.Window != *req.Window) || (req.DeadBand != nil && got.DeadBand != *req.DeadBand) {
				return fmt.Errorf("tune %s/%s: got %+v, sent ref %v window %v dead_band %v", m.def.ID, kind, got, ref, req.Window, req.DeadBand)
			}
			t := m.tunes[kind]
			if t == nil {
				t = &tuneModel{}
				m.tunes[kind] = t
			}
			t.ref = req.Ref
			if req.Window != nil {
				t.window = req.Window
			}
			if req.DeadBand != nil {
				t.deadBand = req.DeadBand
			}
			return nil
		}}
	default:
		m := g.pool[g.rng.IntN(len(g.pool))]
		on := !m.paced
		return paceOp(m.def.ID, on, func() {
			m.paced = on
			if on {
				m.iv = len(g.paced)
				g.paced = append(g.paced, pacedInterval{from: time.Now()})
			} else {
				g.paced[m.iv].to = time.Now()
			}
		})
	}
}

// --- status polling ---

// statusGen polls live run summaries of the paced fleet (90 %) and the
// execution plane's counters (10 %).
type statusGen struct {
	rng   *rand.Rand
	flows []flowDef
}

func (g *statusGen) next() op {
	if g.rng.IntN(10) == 0 {
		return op{class: "scheduler", run: func(ctx context.Context, cn *conn) error {
			st, err := cn.c.SchedulerStats(ctx)
			if err == nil && (st.Shards <= 0 || len(st.PerShard) != st.Shards) {
				err = fmt.Errorf("scheduler stats: %d shards, %d rows", st.Shards, len(st.PerShard))
			}
			return err
		}}
	}
	id := g.flows[g.rng.IntN(len(g.flows))].ID
	return op{class: "status", run: func(ctx context.Context, cn *conn) error {
		st, err := cn.c.Status(ctx, id)
		if err == nil && (st.Flow != "clickstream" || st.Ticks < 0 || st.SimTime.IsZero()) {
			err = fmt.Errorf("status %s: %+v", id, st)
		}
		return err
	}}
}

// --- dashboard reads ---

type metricRef struct {
	ns, name, dimKey, dimVal string
}

// Every metric below exists on a flow from its first tick.
var readMetrics = []metricRef{
	{"Analytics/Compute", "CPUUtilization", "Topology", "clickstream"},
	{"Analytics/Compute", "ExecuteLatencyMs", "Topology", "clickstream"},
	{"Analytics/Compute", "VMCount", "Topology", "clickstream"},
	{"Ingestion/Stream", "IncomingRecords", "StreamName", "clickstream"},
	{"Ingestion/Stream", "WriteUtilization", "StreamName", "clickstream"},
	{"Storage/KVStore", "ConsumedWriteCapacityUnits", "TableName", "clickstream"},
	{"Billing", "TickCost", "Meter", "flow"},
	{"Workload/Generator", "OfferedRecords", "Generator", "clickstream"},
}

var (
	readWindows = []time.Duration{30 * time.Minute, time.Hour, 2 * time.Hour, 6 * time.Hour}
	readStats   = []string{"avg", "max", "p99"}
)

// readGen produces the dashboard mix: 40 % single-series scan+resample,
// 20 % flow-glob fan-out with a fused agg, 15 % join+topk, 15 % batchQuery
// of 16 selectors, 5 % one page of the single-metric route, 5 % Prometheus
// scrape. Answers that touch only still flows are compared bit for bit
// with the reference; answers that touch paced flows get shape checks.
type readGen struct {
	rng           *rand.Rand
	still, moving []flowDef // advanced flows: not paced / paced
	stillGlob     string
	movingGlob    string
	ref           *reference
}

func (g *readGen) pick() (flowDef, bool) {
	n := len(g.still) + len(g.moving)
	i := g.rng.IntN(n)
	if i < len(g.still) {
		return g.still[i], true
	}
	return g.moving[i-len(g.still)], false
}

// pickGlob selects the still or the moving flows, half the time each.
func (g *readGen) pickGlob() (glob string, still bool) {
	if len(g.moving) > 0 && g.rng.IntN(2) == 0 {
		return g.movingGlob, false
	}
	return g.stillGlob, true
}

func (g *readGen) next() op {
	roll := g.rng.IntN(100)
	m := readMetrics[g.rng.IntN(len(readMetrics))]
	switch {
	case roll < 40:
		return g.scan()
	case roll < 60:
		glob, still := g.pickGlob()
		q := fmt.Sprintf("select flow=%s ns=%s name=%s | window 6h | agg %s", glob, m.ns, m.name, readStats[g.rng.IntN(2)])
		return g.queryOp("query.fanout", q, still)
	case roll < 75:
		glob, still := g.pickGlob()
		q := fmt.Sprintf("select flow=%s ns=Analytics/Compute name=ExecuteLatencyMs | window %s | resample 1m p99 | join 1m l/r (select flow=%s ns=Analytics/Compute name=VMCount | resample 1m avg) | topk 5",
			glob, readWindows[1+g.rng.IntN(2)], glob)
		return g.queryOp("query.join", q, still)
	case roll < 90:
		return g.batch()
	case roll < 95:
		return g.page()
	default:
		return op{class: "telemetry.prom", run: func(ctx context.Context, cn *conn) error {
			_, _, err := scrapeProm(ctx, cn)
			return err
		}}
	}
}

func scanQuery(id string, m metricRef, window time.Duration, period, stat string) string {
	return fmt.Sprintf("select flow=%s ns=%s name=%s | window %s | resample %s %s", id, m.ns, m.name, window, period, stat)
}

func (g *readGen) scan() op {
	f, still := g.pick()
	m := readMetrics[g.rng.IntN(len(readMetrics))]
	q := scanQuery(f.ID, m, readWindows[g.rng.IntN(len(readWindows))], "1m", readStats[g.rng.IntN(len(readStats))])
	return g.queryOp("query.scan", q, still)
}

func (g *readGen) queryOp(class, q string, still bool) op {
	return op{class: class, run: func(ctx context.Context, cn *conn) error {
		resp, err := cn.c.Query(ctx, q)
		if err != nil {
			return err
		}
		if len(resp.Results) == 0 {
			return fmt.Errorf("%s: no series for %q", class, q)
		}
		if still && g.ref != nil {
			return g.ref.check(q, resp.Results)
		}
		for _, s := range resp.Results {
			if len(s.Ts) == 0 || len(s.Ts) != len(s.Vs) {
				return fmt.Errorf("%s: %q: series %s has %d ts, %d vs", class, q, s.Flow, len(s.Ts), len(s.Vs))
			}
		}
		return nil
	}}
}

func (g *readGen) batch() op {
	type sel struct {
		q     client.BatchQuery
		pipe  string
		still bool
	}
	sels := make([]sel, 16)
	queries := make([]client.BatchQuery, 16)
	for i := range sels {
		f, still := g.pick()
		m := readMetrics[g.rng.IntN(len(readMetrics))]
		w := readWindows[g.rng.IntN(len(readWindows))]
		stat := readStats[g.rng.IntN(len(readStats))]
		sels[i] = sel{
			q:     client.BatchQuery{Flow: f.ID, Namespace: m.ns, Name: m.name, Dimensions: map[string]string{m.dimKey: m.dimVal}, Stat: stat, Window: w, Period: time.Minute},
			pipe:  scanQuery(f.ID, m, w, "1m", stat),
			still: still,
		}
		queries[i] = sels[i].q
	}
	return op{class: "batchQuery", run: func(ctx context.Context, cn *conn) error {
		res, err := cn.c.BatchQueryMetrics(ctx, queries)
		if err != nil {
			return err
		}
		for i, r := range res {
			if r.Error != nil {
				return fmt.Errorf("batchQuery[%d] %s: %s", i, sels[i].pipe, r.Error.Message)
			}
			if len(r.Ts) == 0 || len(r.Ts) != len(r.Vs) {
				return fmt.Errorf("batchQuery[%d] %s: %d ts, %d vs", i, sels[i].pipe, len(r.Ts), len(r.Vs))
			}
			if sels[i].still && g.ref != nil {
				if err := g.ref.checkColumns(sels[i].pipe, r.Ts, r.Vs); err != nil {
					return fmt.Errorf("batchQuery[%d]: %w", i, err)
				}
			}
		}
		return nil
	}}
}

func (g *readGen) page() op {
	f, still := g.pick()
	m := readMetrics[g.rng.IntN(len(readMetrics))]
	const limit = 50
	offset := limit * g.rng.IntN(7) // 6 h at 1 m is 360 or 361 buckets
	mq := client.MetricQuery{Namespace: m.ns, Name: m.name, Dimensions: map[string]string{m.dimKey: m.dimVal},
		Stat: "avg", Window: 6 * time.Hour, Period: time.Minute, Limit: limit, Offset: offset}
	pipe := scanQuery(f.ID, m, 6*time.Hour, "1m", "avg")
	return op{class: "metrics.page", run: func(ctx context.Context, cn *conn) error {
		ser, err := cn.c.QueryMetrics(ctx, f.ID, mq)
		if err != nil {
			return err
		}
		if len(ser.Points) == 0 || len(ser.Points) > limit || ser.Offset != offset {
			return fmt.Errorf("metrics.page %s: %d points at offset %d (asked %d)", f.ID, len(ser.Points), ser.Offset, offset)
		}
		if !still || g.ref == nil {
			return nil
		}
		ts := make([]int64, len(ser.Points))
		vs := make([]float64, len(ser.Points))
		for i, p := range ser.Points {
			ts[i], vs[i] = p.T.UnixNano(), p.V
		}
		return g.ref.checkPage(pipe, offset, ser.Total, ts, vs)
	}}
}

// scrapeProm fetches the Prometheus exposition and returns its size.
func scrapeProm(ctx context.Context, cn *conn) (bytes int, body string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cn.base+"/v1/telemetry?format=prom", nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := cn.hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "flower_http_requests_total") {
		return 0, "", fmt.Errorf("prom scrape: status %d, %d bytes", resp.StatusCode, len(data))
	}
	return len(data), string(data), nil
}

// --- reference answers ---

// reference holds the still flows of a read workload, built inside the
// bench from the same spec, seed and advance the daemon was given, and
// answers queries through query.Prepare(...).Run(). HEAD is deterministic,
// so the daemon's answer must match it bit for bit.
type reference struct {
	reg *registry.Registry
	src query.Source

	mu    sync.Mutex
	cache map[string]*query.Result
}

func newReference(defs []flowDef, advance time.Duration) (*reference, error) {
	reg := registry.New()
	for _, d := range defs {
		spec, err := flow.DefaultClickstream(d.Peak)
		if err != nil {
			return nil, err
		}
		f, err := reg.Create(d.ID, spec, sim.Options{Seed: d.Seed})
		if err != nil {
			return nil, err
		}
		if _, err := f.Advance(advance); err != nil {
			return nil, err
		}
	}
	return &reference{reg: reg, src: query.FromRegistry(reg), cache: map[string]*query.Result{}}, nil
}

func (r *reference) close() { r.reg.Close() }

func (r *reference) run(q string) (*query.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res, ok := r.cache[q]; ok {
		return res, nil
	}
	pl, err := query.Prepare(r.src, q, nil)
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w", q, err)
	}
	res, err := pl.Run()
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w", q, err)
	}
	r.cache[q] = res
	return res, nil
}

func sameColumns(gotTs, wantTs []int64, gotVs, wantVs []float64) bool {
	if len(gotTs) != len(wantTs) || len(gotVs) != len(wantVs) {
		return false
	}
	for i := range gotTs {
		if gotTs[i] != wantTs[i] {
			return false
		}
	}
	for i := range gotVs {
		if math.Float64bits(gotVs[i]) != math.Float64bits(wantVs[i]) {
			return false
		}
	}
	return true
}

func (r *reference) check(q string, got []apiv1.QuerySeries) error {
	want, err := r.run(q)
	if err != nil {
		return err
	}
	if len(got) != len(want.Series) {
		return fmt.Errorf("%q: %d series, reference has %d", q, len(got), len(want.Series))
	}
	for i, w := range want.Series {
		g := got[i]
		if g.Flow != w.Flow || g.Namespace != w.Namespace || g.Name != w.Name || g.Right != w.Right ||
			!sameColumns(g.Ts, w.Ts, g.Vs, w.Vs) || !sameColumns(nil, nil, g.Vs2, w.Vs2) {
			return fmt.Errorf("%q: series %d (%s) differs from the reference", q, i, w.Flow)
		}
	}
	return nil
}

func (r *reference) checkColumns(q string, ts []int64, vs []float64) error {
	want, err := r.run(q)
	if err != nil {
		return err
	}
	if len(want.Series) != 1 || !sameColumns(ts, want.Series[0].Ts, vs, want.Series[0].Vs) {
		return fmt.Errorf("%q: columns differ from the reference", q)
	}
	return nil
}

func (r *reference) checkPage(q string, offset, total int, ts []int64, vs []float64) error {
	want, err := r.run(q)
	if err != nil {
		return err
	}
	if len(want.Series) != 1 || total != len(want.Series[0].Ts) || offset+len(ts) > total {
		return fmt.Errorf("%q: page total %d offset %d, reference has %d points", q, total, offset, len(want.Series[0].Ts))
	}
	w := want.Series[0]
	if !sameColumns(ts, w.Ts[offset:offset+len(ts)], vs, w.Vs[offset:offset+len(vs)]) {
		return fmt.Errorf("%q: page at %d differs from the reference", q, offset)
	}
	return nil
}
