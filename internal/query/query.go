// Package query is the streaming query engine over the metric plane: the
// composable read layer that turns the columnar stores of many flows into
// one queryable surface, served at POST /v1/query and `flowctl query`.
//
// A query is a pipeline of stages — select (flow/metric/dimension
// predicates with * globs), window, filter, map, resample, join, topk,
// limit, agg — written either in a small pipe syntax
//
//	select flow=web-* ns=Analytics/Cluster name=RequestLatencyMs
//	  | window 30m | resample 10s p99
//	  | join 10s l/r (select flow=web-* name=AllocatedVMs | resample 10s avg)
//	  | topk 5
//
// or as the equivalent JSON AST (Pipeline/Stage). A greedy planner
// resolves the selects against the registry (most-selective join side
// first), groups evaluation so each flow's lock is taken once, and pushes
// the window and resample stages down into the timeseries.View layer:
// execution is an iterator chain over zero-copy views — binary-search
// window slicing, streaming filter/map, epoch-aligned bucket aggregation
// via View.Align with the store's reusable percentile scratch — that
// materialises only each operator chain's final output, never an
// intermediate series. Plan.Explain reports the chosen order and the
// pushdowns without running anything.
//
// Joins align both sides on epoch-anchored buckets of the join period
// (timeseries.BucketStart), pair series flow-by-flow (a single-series
// side broadcasts), and inner-merge on bucket start times; `join p expr
// (sub)` combines the sides per bucket with an l/r arithmetic expression,
// while an expression-less join returns both columns. The batch endpoint
// POST /v1/metrics:batchQuery is sugar over the same executor: each
// selector compiles to a one-select pipeline program.
package query

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/timeseries"
)

// Engine limits. Exceeding any of them is an *Error (invalid argument),
// never a truncated answer.
const (
	// MaxStages bounds one pipeline (join sides count separately).
	MaxStages = 16
	// MaxSeries bounds how many series one select may match.
	MaxSeries = 256
	// MaxQueryLen bounds the pipe-syntax source text.
	MaxQueryLen = 4096
	// MaxTopK bounds the topk sink.
	MaxTopK = MaxSeries
	// MaxLimit bounds the per-series limit sink.
	MaxLimit = 1_000_000
	// DefaultWindow applies when a pipeline has no window stage.
	DefaultWindow = 30 * time.Minute
)

// Error is a query-rejection error: syntax, stage order, unknown names,
// or an exceeded limit. Handlers map it to HTTP 400 invalid_argument;
// anything else escaping the engine is a server bug.
type Error struct{ msg string }

func (e *Error) Error() string { return e.msg }

func errf(format string, args ...any) *Error {
	return &Error{msg: fmt.Sprintf(format, args...)}
}

// Pipeline is the query AST: an ordered list of stages. It is the wire
// form — api/v1 embeds it verbatim — and the input to Compile.
type Pipeline struct {
	Stages []Stage `json:"stages"`
}

// Stage is one pipeline stage. Op selects the operator; the other fields
// are per-operator (durations travel as Go duration strings, matching the
// batch query API):
//
//	select    Flow/Namespace/Name glob patterns (empty: any), Dims exact
//	window    Window, e.g. "30m"
//	filter    Cmp (> >= < <= == !=) and Value, applied per point
//	map       Expr over v, e.g. "v*2+1"
//	resample  Period + Stat (epoch-aligned buckets)
//	join      Period, optional Expr over l and r, Right sub-pipeline
//	topk      K series by last value, descending
//	limit     N newest points per series
//	agg       Stat collapsing each series to one point
type Stage struct {
	Op string `json:"op"`

	Flow      string            `json:"flow,omitempty"`
	Namespace string            `json:"ns,omitempty"`
	Name      string            `json:"name,omitempty"`
	Dims      map[string]string `json:"dims,omitempty"`

	Window string `json:"window,omitempty"`

	Cmp   string  `json:"cmp,omitempty"`
	Value float64 `json:"value,omitempty"`

	Expr string `json:"expr,omitempty"`

	Period string `json:"period,omitempty"`
	Stat   string `json:"stat,omitempty"`

	Right *Pipeline `json:"right,omitempty"`

	K int `json:"k,omitempty"`
	N int `json:"n,omitempty"`
}

// --- compiled form ---

// cmpOp is a compiled filter comparison.
type cmpOp byte

const (
	cmpGT cmpOp = iota
	cmpGE
	cmpLT
	cmpLE
	cmpEQ
	cmpNE
)

func parseCmp(s string) (cmpOp, bool) {
	switch s {
	case ">":
		return cmpGT, true
	case ">=":
		return cmpGE, true
	case "<":
		return cmpLT, true
	case "<=":
		return cmpLE, true
	case "==":
		return cmpEQ, true
	case "!=":
		return cmpNE, true
	}
	return 0, false
}

func (c cmpOp) String() string {
	return [...]string{">", ">=", "<", "<=", "==", "!="}[c]
}

func (c cmpOp) keep(v, threshold float64) bool {
	switch c {
	case cmpGT:
		return v > threshold
	case cmpGE:
		return v >= threshold
	case cmpLT:
		return v < threshold
	case cmpLE:
		return v <= threshold
	case cmpEQ:
		return v == threshold
	default:
		return v != threshold
	}
}

// chainOp is one compiled per-series streaming operator.
type chainOp struct {
	kind byte // 'f' filter, 'm' map, 'r' resample

	cmp cmpOp   // filter
	val float64 // filter threshold

	expr *exprNode // map

	period time.Duration // resample
	stat   timeseries.Agg
}

// postOp is one compiled result-set operator.
type postOp struct {
	kind byte // 'k' topk, 'l' limit, 'a' agg
	n    int
	stat timeseries.Agg
}

// selectSpec is a compiled select stage.
type selectSpec struct {
	flow, ns, name string // glob patterns; empty matches anything
	dims           map[string]string
}

// joinSpec is a compiled join stage.
type joinSpec struct {
	period time.Duration
	expr   *exprNode // nil: dual-column output
	right  *program
}

// program is one compiled pipeline side: select → window → per-series
// chain, optionally joined against a right program, then the result-set
// sinks.
type program struct {
	sel    selectSpec
	window time.Duration
	chain  []chainOp
	join   *joinSpec
	post   []postOp
}

// resamplePeriod returns the chain's resample period (0 if none).
func (pr *program) resamplePeriod() time.Duration {
	for _, op := range pr.chain {
		if op.kind == 'r' {
			return op.period
		}
	}
	return 0
}

// ParseStat maps the statistic names of the whole read plane — pipeline
// stages, GET .../metrics/query and batchQuery — to the timeseries
// aggregation: avg, sum, min, max, count, p50, p90, p99 and the
// CloudWatch-flavoured aliases (mean/average, minimum, maximum,
// samplecount), in any letter case. The empty name is avg.
func ParseStat(s string) (timeseries.Agg, bool) {
	switch strings.ToLower(s) {
	case "", "avg", "mean", "average":
		return timeseries.AggMean, true
	case "sum":
		return timeseries.AggSum, true
	case "min", "minimum":
		return timeseries.AggMin, true
	case "max", "maximum":
		return timeseries.AggMax, true
	case "count", "samplecount":
		return timeseries.AggCount, true
	case "p50":
		return timeseries.AggP50, true
	case "p90":
		return timeseries.AggP90, true
	case "p99":
		return timeseries.AggP99, true
	}
	return 0, false
}

// Compile validates a pipeline AST and lowers it to the executable form.
// Stage-order rules: a pipeline starts with exactly one select; window /
// filter / map / resample follow in any order (window and resample at
// most once); then at most one join whose Right sub-pipeline holds only
// select/window/filter/map/resample; then topk / limit / agg, each at
// most once, applied in written order. agg after an expression-less join
// is rejected — a dual-column result has no single value to aggregate.
func Compile(p *Pipeline) (*program, error) {
	return compile(p, false)
}

func compile(p *Pipeline, isJoinSide bool) (*program, error) {
	if p == nil || len(p.Stages) == 0 {
		return nil, errf("empty pipeline: a query starts with a select stage")
	}
	if len(p.Stages) > MaxStages {
		return nil, errf("%d stages exceed the %d-stage limit", len(p.Stages), MaxStages)
	}
	pr := &program{window: DefaultWindow}
	// phase tracks the stage-order state machine: 0 expects select,
	// 1 accepts the per-series chain, 2 accepts join, 3 accepts sinks.
	phase := 0
	sawWindow, sawResample := false, false
	sawPost := map[byte]bool{}
	for i, st := range p.Stages {
		if phase == 0 {
			if st.Op != "select" {
				return nil, errf("stage %d: pipeline must start with select, got %q", i+1, st.Op)
			}
			pr.sel = selectSpec{flow: st.Flow, ns: st.Namespace, name: st.Name, dims: st.Dims}
			phase = 1
			continue
		}
		switch st.Op {
		case "select":
			return nil, errf("stage %d: select is only valid as the first stage", i+1)
		case "window":
			if phase > 1 || sawWindow {
				return nil, errf("stage %d: window must appear once, before join and the sinks", i+1)
			}
			d, err := parseDur(st.Window, "window")
			if err != nil {
				return nil, err
			}
			pr.window, sawWindow = d, true
		case "filter":
			if phase > 1 {
				return nil, errf("stage %d: filter must precede join and the sinks", i+1)
			}
			cmp, ok := parseCmp(st.Cmp)
			if !ok {
				return nil, errf("stage %d: unknown comparison %q (want > >= < <= == !=)", i+1, st.Cmp)
			}
			pr.chain = append(pr.chain, chainOp{kind: 'f', cmp: cmp, val: st.Value})
		case "map":
			if phase > 1 {
				return nil, errf("stage %d: map must precede join and the sinks", i+1)
			}
			e, err := parseExpr(st.Expr, exprVarsV)
			if err != nil {
				return nil, err
			}
			pr.chain = append(pr.chain, chainOp{kind: 'm', expr: e})
		case "resample":
			if phase > 1 || sawResample {
				return nil, errf("stage %d: resample must appear once, before join and the sinks", i+1)
			}
			d, err := parseDur(st.Period, "resample period")
			if err != nil {
				return nil, err
			}
			stat, ok := ParseStat(st.Stat)
			if !ok {
				return nil, errf("stage %d: unknown stat %q", i+1, st.Stat)
			}
			pr.chain = append(pr.chain, chainOp{kind: 'r', period: d, stat: stat})
			sawResample = true
		case "join":
			if isJoinSide {
				return nil, errf("stage %d: join inside a join side is not supported", i+1)
			}
			if phase > 1 {
				return nil, errf("stage %d: only one join per pipeline, before the sinks", i+1)
			}
			d, err := parseDur(st.Period, "join period")
			if err != nil {
				return nil, err
			}
			js := &joinSpec{period: d}
			if st.Expr != "" {
				e, err := parseExpr(st.Expr, exprVarsLR)
				if err != nil {
					return nil, err
				}
				js.expr = e
			}
			right, err := compile(st.Right, true)
			if err != nil {
				return nil, fmt.Errorf("join side: %w", err)
			}
			js.right = right
			if err := alignSide(pr, d); err != nil {
				return nil, err
			}
			if err := alignSide(right, d); err != nil {
				return nil, fmt.Errorf("join side: %w", err)
			}
			pr.join = js
			phase = 3
		case "topk":
			if st.K < 1 || st.K > MaxTopK {
				return nil, errf("stage %d: topk k must be in [1, %d], got %d", i+1, MaxTopK, st.K)
			}
			if err := postOnce(sawPost, 'k', i); err != nil {
				return nil, err
			}
			pr.post = append(pr.post, postOp{kind: 'k', n: st.K})
			phase = 3
		case "limit":
			if st.N < 1 || st.N > MaxLimit {
				return nil, errf("stage %d: limit n must be in [1, %d], got %d", i+1, MaxLimit, st.N)
			}
			if err := postOnce(sawPost, 'l', i); err != nil {
				return nil, err
			}
			pr.post = append(pr.post, postOp{kind: 'l', n: st.N})
			phase = 3
		case "agg":
			stat, ok := ParseStat(st.Stat)
			if !ok {
				return nil, errf("stage %d: unknown stat %q", i+1, st.Stat)
			}
			if pr.join != nil && pr.join.expr == nil {
				return nil, errf("stage %d: agg after an expression-less join — a dual-column result has no single value; give the join an l/r expression", i+1)
			}
			if err := postOnce(sawPost, 'a', i); err != nil {
				return nil, err
			}
			pr.post = append(pr.post, postOp{kind: 'a', stat: stat})
			phase = 3
		default:
			return nil, errf("stage %d: unknown op %q", i+1, st.Op)
		}
		if isJoinSide && phase > 1 {
			return nil, errf("stage %d: a join side holds only select/window/filter/map/resample", i+1)
		}
	}
	return pr, nil
}

func postOnce(seen map[byte]bool, kind byte, i int) error {
	if seen[kind] {
		return errf("stage %d: duplicate sink stage", i+1)
	}
	seen[kind] = true
	return nil
}

// alignSide makes one join side emit buckets of the join period: an
// existing resample must already use it (the per-side stat is the point —
// p99 left, avg right); a side with no resample gets an implicit
// `resample period avg` appended after its filters and maps.
func alignSide(pr *program, period time.Duration) error {
	if p := pr.resamplePeriod(); p != 0 {
		if p != period {
			return errf("join period %v does not match the side's resample period %v", period, p)
		}
		return nil
	}
	pr.chain = append(pr.chain, chainOp{kind: 'r', period: period, stat: timeseries.AggMean})
	return nil
}

func parseDur(s, what string) (time.Duration, error) {
	if s == "" {
		return 0, errf("%s is required", what)
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, errf("invalid %s %q", what, s)
	}
	return d, nil
}
