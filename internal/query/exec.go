package query

import (
	"math"
	"sort"
	"time"

	"repro/internal/metricstore"
	"repro/internal/telemetry"
	"repro/internal/timeseries"
)

// Execution. A plan runs as one pass per matched series inside
// Handle.ViewWindow — window slicing by the view's time column, then the
// compiled chain streaming point by point (filters, maps, epoch-aligned
// bucket accumulation) straight into presized output columns. Only each
// chain's final output is materialised; with a fused agg sink not even
// that, and a fused agg over a bare window is one Aggregate call. The
// join then merge-scans the (already small, already aligned) bucketed
// columns of both sides. Nothing in the executor holds two flows' locks
// at once: sides evaluate sequentially, flow by flow.

// Result is an executed query: the output series in plan order and the
// total number of result rows (points) across them.
type Result struct {
	Series []Series
	Rows   int
}

// Series is one result series. Ts/Vs are parallel columns owned by the
// result. Vs2 is set only for an expression-less join (the right side's
// column); Right names the joined right series as "ns/name".
type Series struct {
	Flow      string
	Namespace string
	Name      string
	Dims      map[string]string
	Right     string
	Ts        []int64
	Vs        []float64
	Vs2       []float64
}

// execScratch is the single-threaded per-run scratch: percentile buffers
// for work done outside any store lock (join fusion, post-agg).
type execScratch struct {
	sc  timeseries.AggScratch
	buf []float64
}

// Run executes the plan and records the flower_query_* telemetry. It
// never fails on data (a deleted flow or empty window yields an empty
// series); the error return exists for future resource limits.
func (p *Plan) Run() (*Result, error) {
	start := telemetry.Now()
	res := p.run()
	telExecSeconds.Observe(time.Duration(telemetry.SinceNanos(start)))
	telQueries.With("ok").Inc()
	telRows.Add(uint64(res.Rows))
	return res, nil
}

func (p *Plan) run() *Result {
	scr := &execScratch{}
	var out []Series
	if js := p.prog.join; js != nil {
		// Most selective side first; an inner join against nothing is
		// nothing, so the bigger side is skipped when the first side
		// streams zero points.
		first, second := p.left, p.right
		firstProg, secondProg := p.prog, js.right
		if p.rightFirst {
			first, second = second, first
			firstProg, secondProg = secondProg, firstProg
		}
		firstOut := evalSide(p.src, first, firstProg, nil)
		if totalPoints(firstOut) == 0 {
			out = nil
		} else {
			secondOut := evalSide(p.src, second, secondProg, nil)
			left, right := firstOut, secondOut
			if p.rightFirst {
				left, right = secondOut, firstOut
			}
			out = mergeJoin(left, right, js, p.chainFuse(), scr)
		}
	} else {
		out = evalSide(p.src, p.left, p.prog, p.chainFuse())
	}
	out = p.applyPost(out, scr)
	res := &Result{Series: out, Rows: totalPoints(out)}
	return res
}

// chainFuse returns the agg sink to fuse into the streaming pass, if the
// first sink is an agg (otherwise topk/limit must see the full columns).
func (p *Plan) chainFuse() *postOp {
	if len(p.prog.post) > 0 && p.prog.post[0].kind == 'a' {
		return &p.prog.post[0]
	}
	return nil
}

func totalPoints(series []Series) int {
	n := 0
	for i := range series {
		n += len(series[i].Ts)
	}
	return n
}

// evalSide evaluates one pipeline side: for each flow group, one flow
// lock, and inside it one ViewWindow pass per series. fuse, when set,
// collapses each series to a single aggregated point without
// materialising its columns (nil when a join consumes this side).
func evalSide(src Source, sd side, pr *program, fuse *postOp) []Series {
	out := make([]Series, 0, sd.series)
	for _, g := range sd.groups {
		src.WithFlow(g.flow, func(_ *metricstore.Store, now time.Time) {
			from := now.Add(-pr.window)
			to := now.Add(time.Nanosecond)
			for _, r := range g.series {
				ser := Series{Flow: g.flow, Namespace: r.id.Namespace, Name: r.id.Name, Dims: r.id.Dimensions}
				r.h.ViewWindow(from, to, func(v timeseries.View, sc *timeseries.AggScratch) {
					ser.Ts, ser.Vs = runChain(v, sc, pr, fuse)
				})
				out = append(out, ser)
			}
		})
		// A flow deleted between plan and run simply contributes nothing.
	}
	return out
}

// splitChain separates the compiled chain into the ops before the
// resample, the resample itself, and the ops after it.
func splitChain(chain []chainOp) (pre []chainOp, res *chainOp, post []chainOp) {
	for i := range chain {
		if chain[i].kind == 'r' {
			return chain[:i], &chain[i], chain[i+1:]
		}
	}
	return chain, nil, nil
}

// runChain streams one series' view through the compiled chain and
// returns the materialised output columns (one point, for a fused agg;
// nil columns for an empty result). It runs under the entry lock: v and
// sc are only valid here, and everything returned is freshly owned.
func runChain(v timeseries.View, sc *timeseries.AggScratch, pr *program, fuse *postOp) ([]int64, []float64) {
	pre, res, post := splitChain(pr.chain)
	if fuse != nil && res == nil && len(pre) == 0 {
		// A raw window straight into an agg: Aggregate is the sink's
		// arithmetic (same left-to-right sum, same strict comparisons,
		// same percentile sort) over the view's value column in place.
		n := v.Len()
		if n == 0 {
			return nil, nil
		}
		return []int64{v.NanoAt(n - 1)}, []float64{v.Aggregate(fuse.stat, sc)}
	}

	var sink chainSink
	switch {
	case fuse != nil:
		sink.initAgg(fuse.stat)
	case res != nil:
		sink.initColumns(v.BucketHint(res.period))
	default:
		sink.initColumns(v.Len())
	}
	sink.post = post

	switch {
	case res == nil:
		// No resample: filters and maps stream straight into the sink,
		// once per explicit value or once per run.
		times, col := v.Times(), v.Values()
		if vals, ok := col.Explicit(); ok {
			for i, x := range vals {
				if val, keep := applyOps(pre, x); keep {
					sink.emit(times.At(i), val)
				}
			}
			break
		}
		spans := col.Spans()
		for sp, ok := spans.Next(); ok; sp, ok = spans.Next() {
			if val, keep := applyOps(pre, sp.V); keep {
				for i := sp.Lo; i < sp.Hi; i++ {
					sink.emit(times.At(i), val)
				}
			}
		}
	case len(pre) == 0:
		// Resample with a clean prefix: the Align fast path aggregates
		// each epoch bucket over its slice of the value column in place
		// (over its runs, when run-encoded), percentiles sorting into the
		// entry's reusable scratch.
		it := v.Align(res.period)
		if vals, ok := v.Values().Explicit(); ok {
			for {
				start, lo, hi, ok := it.Next()
				if !ok {
					break
				}
				sink.emit(start, res.stat.ApplyWith(vals[lo:hi], sc))
			}
			break
		}
		for {
			start, val, ok := it.NextStat(res.stat, sc)
			if !ok {
				break
			}
			sink.emit(start, val)
		}
	default:
		// Filters or maps precede the resample: stream the transformed
		// points through a bucket accumulator (percentile buckets gather
		// into the entry scratch's sibling buffer).
		var acc bucketAcc
		_, isPct := res.stat.Percentile()
		per := res.period
		cur, open := int64(0), false
		var pctBuf []float64
		flush := func() {
			if !open {
				return
			}
			if isPct {
				if len(pctBuf) > 0 {
					sink.emit(cur, res.stat.ApplyWith(pctBuf, sc))
					pctBuf = pctBuf[:0]
				}
				return
			}
			if acc.n > 0 {
				sink.emit(cur, acc.value(res.stat))
				acc = bucketAcc{}
			}
		}
		add := func(tn int64, val float64) {
			b := timeseries.BucketStart(tn, per)
			if !open || b != cur {
				flush()
				cur, open = b, true
			}
			if isPct {
				pctBuf = append(pctBuf, val)
			} else {
				acc.add(val)
			}
		}
		times, col := v.Times(), v.Values()
		if vals, ok := col.Explicit(); ok {
			for i, x := range vals {
				if val, keep := applyOps(pre, x); keep {
					add(times.At(i), val)
				}
			}
		} else {
			spans := col.Spans()
			for sp, ok := spans.Next(); ok; sp, ok = spans.Next() {
				if val, keep := applyOps(pre, sp.V); keep {
					for i := sp.Lo; i < sp.Hi; i++ {
						add(times.At(i), val)
					}
				}
			}
		}
		flush()
	}
	return sink.finish(sc)
}

// applyOps runs the filter/map prefix over one value.
func applyOps(ops []chainOp, val float64) (float64, bool) {
	for i := range ops {
		if ops[i].kind == 'f' {
			if !ops[i].cmp.keep(val, ops[i].val) {
				return 0, false
			}
			continue
		}
		val = ops[i].expr.eval(val, 0)
	}
	return val, true
}

// chainSink terminates a series' stream: either into presized output
// columns or into a fused aggregation.
type chainSink struct {
	post []chainOp // post-resample filters/maps

	ts []int64
	vs []float64

	agg     bool
	aggStat timeseries.Agg
	aggAcc  bucketAcc
	aggPct  bool
	aggBuf  []float64
	lastT   int64
	any     bool
}

func (s *chainSink) initColumns(capHint int) {
	s.ts = make([]int64, 0, capHint)
	s.vs = make([]float64, 0, capHint)
}

func (s *chainSink) initAgg(stat timeseries.Agg) {
	s.agg = true
	s.aggStat = stat
	_, s.aggPct = stat.Percentile()
}

func (s *chainSink) emit(tn int64, val float64) {
	val, keep := applyOps(s.post, val)
	if !keep {
		return
	}
	if s.agg {
		s.any, s.lastT = true, tn
		if s.aggPct {
			s.aggBuf = append(s.aggBuf, val)
		} else {
			s.aggAcc.add(val)
		}
		return
	}
	s.ts = append(s.ts, tn)
	s.vs = append(s.vs, val)
}

func (s *chainSink) finish(sc *timeseries.AggScratch) ([]int64, []float64) {
	if !s.agg {
		return s.ts, s.vs
	}
	if !s.any {
		return nil, nil
	}
	var val float64
	if s.aggPct {
		val = s.aggStat.ApplyWith(s.aggBuf, sc)
	} else {
		val = s.aggAcc.value(s.aggStat)
	}
	return []int64{s.lastT}, []float64{val}
}

// bucketAcc is the streaming accumulator for the non-percentile
// aggregations, bit-compatible with Agg.Apply over the materialised
// bucket (the sum accumulates in the same left-to-right order).
type bucketAcc struct {
	n        int
	sum      float64
	min, max float64
}

func (b *bucketAcc) add(v float64) {
	if b.n == 0 {
		b.min, b.max = v, v
	} else {
		if v < b.min {
			b.min = v
		}
		if v > b.max {
			b.max = v
		}
	}
	b.n++
	b.sum += v
}

func (b *bucketAcc) value(a timeseries.Agg) float64 {
	switch a {
	case timeseries.AggCount:
		return float64(b.n)
	case timeseries.AggSum:
		return b.sum
	}
	if b.n == 0 {
		return math.NaN()
	}
	switch a {
	case timeseries.AggMean:
		return b.sum / float64(b.n)
	case timeseries.AggMin:
		return b.min
	case timeseries.AggMax:
		return b.max
	default:
		return math.NaN()
	}
}

// --- join ---

// mergeJoin pairs left and right series and inner-merges each pair on
// their (epoch-aligned, sorted) bucket start times. Pairing is by flow —
// every left series against every right series of the same flow — except
// that a right side matching exactly one series broadcasts to all left
// series. With an expression, each matched bucket yields expr(l, r)
// (fused directly into an agg sink when one follows); without, the
// result carries both columns.
func mergeJoin(left, right []Series, js *joinSpec, fuse *postOp, scr *execScratch) []Series {
	if fuse != nil && js.expr == nil {
		fuse = nil // compile rejects this; belt and braces
	}
	byFlow := make(map[string][]*Series, len(right))
	for i := range right {
		byFlow[right[i].Flow] = append(byFlow[right[i].Flow], &right[i])
	}
	broadcast := len(right) == 1

	var out []Series
	for li := range left {
		l := &left[li]
		var candidates []*Series
		if broadcast {
			candidates = []*Series{&right[0]}
		} else {
			candidates = byFlow[l.Flow]
		}
		for _, r := range candidates {
			if ser, ok := mergeOne(l, r, js, fuse, scr); ok {
				out = append(out, ser)
			}
		}
	}
	return out
}

func mergeOne(l, r *Series, js *joinSpec, fuse *postOp, scr *execScratch) (Series, bool) {
	ser := Series{Flow: l.Flow, Namespace: l.Namespace, Name: l.Name, Dims: l.Dims,
		Right: r.Namespace + "/" + r.Name}
	n := len(l.Ts)
	if len(r.Ts) < n {
		n = len(r.Ts)
	}
	var acc bucketAcc
	var anyAgg bool
	var lastT int64
	aggPct := false
	if fuse != nil {
		_, aggPct = fuse.stat.Percentile()
		scr.buf = scr.buf[:0]
	} else {
		ser.Ts = make([]int64, 0, n)
		ser.Vs = make([]float64, 0, n)
		if js.expr == nil {
			ser.Vs2 = make([]float64, 0, n)
		}
	}
	i, j := 0, 0
	for i < len(l.Ts) && j < len(r.Ts) {
		switch {
		case l.Ts[i] == r.Ts[j]:
			lv, rv := l.Vs[i], r.Vs[j]
			if js.expr != nil {
				v := js.expr.eval(lv, rv)
				if fuse != nil {
					anyAgg, lastT = true, l.Ts[i]
					if aggPct {
						scr.buf = append(scr.buf, v)
					} else {
						acc.add(v)
					}
				} else {
					ser.Ts = append(ser.Ts, l.Ts[i])
					ser.Vs = append(ser.Vs, v)
				}
			} else {
				ser.Ts = append(ser.Ts, l.Ts[i])
				ser.Vs = append(ser.Vs, lv)
				ser.Vs2 = append(ser.Vs2, rv)
			}
			i++
			j++
		case l.Ts[i] < r.Ts[j]:
			i++
		default:
			j++
		}
	}
	if fuse != nil {
		if !anyAgg {
			return ser, true // empty joined series, kept for visibility
		}
		var val float64
		if aggPct {
			val = fuse.stat.ApplyWith(scr.buf, &scr.sc)
		} else {
			val = acc.value(fuse.stat)
		}
		ser.Ts = []int64{lastT}
		ser.Vs = []float64{val}
	}
	return ser, true
}

// --- sinks ---

// applyPost runs the result-set sinks in written order, skipping the agg
// the chain already fused.
func (p *Plan) applyPost(series []Series, scr *execScratch) []Series {
	fused := p.chainFuse()
	for oi := range p.prog.post {
		op := &p.prog.post[oi]
		switch op.kind {
		case 'k':
			series = topK(series, op.n)
		case 'l':
			for i := range series {
				if cut := len(series[i].Ts) - op.n; cut > 0 {
					series[i].Ts = series[i].Ts[cut:]
					series[i].Vs = series[i].Vs[cut:]
					if series[i].Vs2 != nil {
						series[i].Vs2 = series[i].Vs2[cut:]
					}
				}
			}
		case 'a':
			if op == fused {
				continue
			}
			for i := range series {
				s := &series[i]
				if len(s.Ts) == 0 {
					continue
				}
				val := op.stat.ApplyWith(s.Vs, &scr.sc)
				s.Ts = []int64{s.Ts[len(s.Ts)-1]}
				s.Vs = []float64{val}
				s.Vs2 = nil
			}
		}
	}
	return series
}

// EvalSelector evaluates one (metric, window, resample) selector with the
// engine's streaming executor — the primitive POST /v1/metrics:batchQuery
// is sugar over: a batch selector is a one-select pipeline with a window
// and an optional resample, run through the same chain (zero period
// returns the raw window). Buckets are epoch-aligned like every engine
// resample. The returned columns are freshly owned.
func EvalSelector(h *metricstore.Handle, from, to time.Time, period time.Duration, stat timeseries.Agg) (ts []int64, vs []float64) {
	pr := &program{}
	if period > 0 {
		pr.chain = []chainOp{{kind: 'r', period: period, stat: stat}}
	}
	h.ViewWindow(from, to, func(v timeseries.View, sc *timeseries.AggScratch) {
		ts, vs = runChain(v, sc, pr, nil)
	})
	return ts, vs
}

// topK keeps the k series with the largest last value, ordered by rank
// descending (ties keep plan order; series with no points or a NaN last
// value rank lowest).
func topK(series []Series, k int) []Series {
	if len(series) <= k {
		// Still rank: topk is also "order by last value".
		k = len(series)
	}
	keys := make([]float64, len(series))
	for i := range series {
		keys[i] = math.Inf(-1)
		if n := len(series[i].Ts); n > 0 && !math.IsNaN(series[i].Vs[n-1]) {
			keys[i] = series[i].Vs[n-1]
		}
	}
	ord := make([]int, len(series))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return keys[ord[a]] > keys[ord[b]] })
	out := make([]Series, 0, k)
	for _, i := range ord[:k] {
		out = append(out, series[i])
	}
	return out
}
