package query

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metricstore"
	"repro/internal/telemetry"
)

// Plan is a compiled, resolved, ready-to-run query. Planning is greedy
// and cheap: resolve each select against the source (one flow lock per
// flow, handles interned once for the whole query), count the matches,
// and order a join so the most selective side evaluates first — if it
// streams zero points the other side is never touched, because the join
// is inner. The window and resample stages are pushed down to the View
// layer at execution time; Explain reports all of it without running.
type Plan struct {
	src  Source
	prog *program

	left, right side // right is zero-valued when there is no join

	rightFirst bool
	explain    Explain
}

// side is one resolved pipeline side.
type side struct {
	groups []flowGroup
	series int
}

// flowGroup is the per-flow evaluation unit: all of one flow's matched
// series, answered under one flow-lock acquisition.
type flowGroup struct {
	flow   string
	series []resolved
}

// resolved is one matched series: its identity and the interned handle.
type resolved struct {
	id metricstore.MetricID
	h  *metricstore.Handle
}

// Explain is the plan rendered for humans and tools: ordered steps with
// the planner's decisions (match counts, join order, pushdowns, fusions).
type Explain struct {
	Steps []ExplainStep `json:"steps"`
}

// ExplainStep is one explain line.
type ExplainStep struct {
	Op     string `json:"op"`
	Detail string `json:"detail"`
}

// Text renders the explain output as numbered lines.
func (e *Explain) Text() string {
	var b strings.Builder
	for i, s := range e.Steps {
		fmt.Fprintf(&b, "%2d. %-10s %s\n", i+1, s.Op, s.Detail)
	}
	return b.String()
}

// Prepare parses (when q is non-empty; otherwise ast is the query),
// compiles and plans in one call — the entry point the HTTP handler, the
// batch endpoint and the SDK route through. Every rejection is an *Error.
func Prepare(src Source, q string, ast *Pipeline) (*Plan, error) {
	start := telemetry.Now()
	pl, err := prepare(src, q, ast)
	telPlanSeconds.Observe(time.Duration(telemetry.SinceNanos(start)))
	if err != nil {
		telQueries.With("invalid").Inc()
	}
	return pl, err
}

func prepare(src Source, q string, ast *Pipeline) (*Plan, error) {
	if q != "" {
		parsed, err := Parse(q)
		if err != nil {
			return nil, err
		}
		ast = parsed
	}
	prog, err := Compile(ast)
	if err != nil {
		return nil, err
	}
	pl := &Plan{src: src, prog: prog}
	pl.left, err = resolveSelect(src, prog.sel)
	if err != nil {
		return nil, err
	}
	if prog.join != nil {
		pl.right, err = resolveSelect(src, prog.join.right.sel)
		if err != nil {
			return nil, fmt.Errorf("join side: %w", err)
		}
		// Greedy order: the side matching fewer series runs first; an
		// inner join with an empty side is empty, so the other side is
		// skipped entirely.
		pl.rightFirst = pl.right.series < pl.left.series
	}
	return pl, nil
}

// Explain returns the plan description without executing anything. The
// step list is built on demand: a plan that only runs never pays for its
// own description.
func (p *Plan) Explain() *Explain {
	if len(p.explain.Steps) == 0 {
		p.buildExplain()
	}
	return &p.explain
}

// resolveSelect matches one select stage against the source: flows by
// glob, then each flow's published metrics by ns/name glob and dimension
// subset, interning one handle per matched series. A flow selector with
// no '*' names at most one flow, so it is resolved by that flow's lookup
// alone (an absent id matches nothing); a glob filters one walk of the
// source's flow list.
func resolveSelect(src Source, sel selectSpec) (side, error) {
	var sd side
	exactNS := sel.ns != "" && !strings.ContainsRune(sel.ns, '*')
	flowIDs := []string{sel.flow}
	if sel.flow == "" || strings.ContainsRune(sel.flow, '*') {
		flowIDs = src.FlowIDs()
	}
	for _, flowID := range flowIDs {
		if !matchGlob(sel.flow, flowID) {
			continue
		}
		var g flowGroup
		var overflow error
		src.WithFlow(flowID, func(store *metricstore.Store, _ time.Time) {
			listNS := ""
			if exactNS {
				listNS = sel.ns
			}
			for _, id := range store.ListMetrics(listNS) {
				if !matchGlob(sel.ns, id.Namespace) || !matchGlob(sel.name, id.Name) || !dimsMatch(sel.dims, id.Dimensions) {
					continue
				}
				if sd.series+len(g.series) >= MaxSeries {
					overflow = errf("select matches more than %d series; narrow flow/ns/name", MaxSeries)
					return
				}
				h, ok := store.Lookup(id.Namespace, id.Name, id.Dimensions) //flowervet:allow hotpath(plan-time resolution interns each matched series once per query, not per row; execution reuses the handles)
				if !ok {
					continue
				}
				g.series = append(g.series, resolved{id: id, h: h})
			}
		})
		if overflow != nil {
			return side{}, overflow
		}
		if len(g.series) > 0 {
			g.flow = flowID
			sd.groups = append(sd.groups, g)
			sd.series += len(g.series)
		}
	}
	return sd, nil
}

// dimsMatch reports whether every required dimension is present with the
// exact value (the metric may carry extra dimensions).
func dimsMatch(want, have map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// --- explain construction ---

func (p *Plan) buildExplain() {
	p.addSideExplain("", p.prog, p.left)
	if js := p.prog.join; js != nil {
		order := "left"
		a, b := p.left.series, p.right.series
		if p.rightFirst {
			order = "right"
			a, b = b, a
		}
		mode := "dual-column (l, r)"
		if js.expr != nil {
			mode = "expr over (l, r)"
		}
		p.step("join", fmt.Sprintf("period %v, %s; evaluate %s side first (%d ≤ %d series), short-circuit the other if it streams nothing; inner merge on epoch-aligned bucket starts",
			js.period, mode, order, a, b))
		p.addSideExplain("join side: ", js.right, p.right)
	}
	fused := p.fusedAgg()
	for _, op := range p.prog.post {
		switch op.kind {
		case 'k':
			p.step("topk", fmt.Sprintf("keep %d series by last value, descending", op.n))
		case 'l':
			p.step("limit", fmt.Sprintf("keep the newest %d points per series", op.n))
		case 'a':
			detail := fmt.Sprintf("collapse each series to one %s point", op.stat)
			if fused {
				detail += " — fused into the streaming pass, no intermediate columns"
			}
			p.step("agg", detail)
		}
	}
}

func (p *Plan) addSideExplain(prefix string, pr *program, sd side) {
	p.step(prefix+"select", fmt.Sprintf("%s → %d flows, %d series (one lock pass per flow)",
		renderSelect(pr.sel), len(sd.groups), sd.series))
	p.step(prefix+"window", fmt.Sprintf("[pushdown] last %v → binary-search View.Slice at the store, zero-copy", pr.window))
	pre := 0
	for _, op := range pr.chain {
		switch op.kind {
		case 'f':
			p.step(prefix+"filter", fmt.Sprintf("keep points with v %s %v (streaming)", op.cmp, op.val))
			pre++
		case 'm':
			p.step(prefix+"map", "arithmetic over v per point (streaming)")
			pre++
		case 'r':
			path := "View.Align fast path: per-bucket zero-copy sub-views"
			if pre > 0 {
				path = "streaming bucket accumulator after the filter/map chain"
			}
			p.step(prefix+"resample", fmt.Sprintf("[pushdown] %v %s, epoch-aligned — %s", op.period, op.stat, path))
		}
	}
}

// fusedAgg reports whether the first sink is an agg the executor fuses
// into the streaming pass (always, unless topk/limit reorder before it).
func (p *Plan) fusedAgg() bool {
	return len(p.prog.post) > 0 && p.prog.post[0].kind == 'a'
}

func (p *Plan) step(op, detail string) {
	p.explain.Steps = append(p.explain.Steps, ExplainStep{Op: op, Detail: detail})
}

func renderSelect(sel selectSpec) string {
	var b strings.Builder
	add := func(k, v string) {
		if v == "" {
			v = "*"
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	add("flow", sel.flow)
	add("ns", sel.ns)
	add("name", sel.name)
	keys := make([]string, 0, len(sel.dims))
	for k := range sel.dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		add("dim."+k, sel.dims[k])
	}
	return b.String()
}
