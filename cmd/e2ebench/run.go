package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// endToEndNames are the gated metrics a user of the daemon feels; every
// workload reports all of them (BENCHMARK.json holds units and bounds).
var endToEndNames = []string{
	"setup_s", "req_p50_ms", "tick_lag_p50_ms", "tick_delivered_ratio",
	"ok_ratio", "daemon_cpu_s", "daemon_rss_mb",
}

// loadNames are end-to-end measurements that do not repeat within the
// driver's hard cap on this box, so they cannot gate: the untraced run
// prints them, the traced run reports them as per-layer metrics.
var loadNames = []string{"load.req_p99_ms", "load.tick_lag_p99_ms", "load.req_capacity_rps"}

// outcome is one workload's run: metrics by name plus the verdicts of the
// correctness checks.
type outcome struct {
	workload  string
	seed      int64
	values    map[string]float64 // end-to-end, or per-layer for a traced run
	summaries map[string]summary
	attempted int
	failed    int
	genLateMS float64
	failures  []string // epilogue checks that did not hold
	findings  []string // known defects of HEAD the run tripped over; reported, not counted
	notes     []string
	layers    *layersTable // traced run only
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.failures) == 0 }

// env is what every run of one invocation shares.
type env struct {
	root string
	bin  string // flowerd built from the checkout
	dir  string // scratch directory of this invocation, removed on exit
}

func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir(root), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildFlowerd(root)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir(root), "e2e-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, dir: dir}, nil
}

func (e *env) close() { os.RemoveAll(e.dir) }

// daemonSession is a set-up flowerd subprocess with its request
// connections.
type daemonSession struct {
	t       *target
	conns   []*conn
	dataDir string
	setupS  []float64
}

func (s *daemonSession) close() {
	for _, cn := range s.conns {
		cn.close()
	}
	s.t.kill()
	os.RemoveAll(s.dataDir)
	os.Remove(s.dataDir + ".log")
}

// A run repeats its set-up at least cfg.setups times, then goes on while
// the passes so far fit setUpBudget, up to maxSetups: a cheap set-up is the
// noisiest, and the cheapest to repeat.
const (
	setUpBudget = 2500 * time.Millisecond
	maxSetups   = 7
)

// setUpDaemon starts flowerd on a fresh data directory and runs the plan's
// set-up against it, repeatedly (see setUpBudget); the last instance is
// returned live. Each pass is timed from exec to the last acknowledged set-up request (go
// build excluded): the time before the plane can take its first measured
// request.
func setUpDaemon(ctx context.Context, e *env, p *plan, cfg runConfig) (*daemonSession, error) {
	s := &daemonSession{}
	began := time.Now()
	for i := 0; ; i++ {
		dataDir, err := os.MkdirTemp(e.dir, fmt.Sprintf("%s-%d-", p.size.name, cfg.seed))
		if err != nil {
			return nil, err
		}
		t, err := startDaemon(e.bin, dataDir)
		if err != nil {
			return nil, err
		}
		conns := make([]*conn, cfg.gens)
		for g := range conns {
			conns[g] = t.newConn()
		}
		cur := &daemonSession{t: t, conns: conns, dataDir: dataDir}
		if err := setUp(ctx, p, conns); err != nil {
			cur.close()
			return nil, err
		}
		s.setupS = append(s.setupS, time.Since(t.started).Seconds())
		if n := i + 1; n >= cfg.setups && (cfg.setups == 1 || n >= maxSetups || time.Since(began) >= setUpBudget) {
			s.t, s.conns, s.dataDir = t, conns, dataDir
			return s, nil
		}
		cur.close()
	}
}

// runEndToEnd is one untraced run of one workload against a flowerd
// subprocess: set-up, warm-up, open loop, closed loop, epilogue checks.
func runEndToEnd(ctx context.Context, e *env, cfg runConfig) (*outcome, error) {
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

	cfg.scrape = true // two scrapes outside the timed window: the scheduler identity needs them
	res, err := applyLoad(ctx, s.t, p, cfg, s.conns, nil)
	if err != nil {
		return nil, err
	}
	m := foldEndToEnd(res, s.setupS)
	out := &outcome{workload: cfg.size.name, seed: cfg.seed, values: m.values, summaries: m.summaries,
		attempted: m.attempted, failed: m.failed, genLateMS: m.genLateMS, notes: m.notes}

	gap, tolerance := identityGap(p, res)
	if cfg.size.paced+cfg.size.moving > 0 && (gap > tolerance || gap < -tolerance) {
		out.failures = append(out.failures, fmt.Sprintf("scheduler identity: demanded − delivered − skipped = %.0f ticks, beyond ± %.0f (one per pacer)", gap, tolerance))
	}

	want := p.expected()
	s.t.kill()
	rec, err := checkRecovery(ctx, e.bin, s.dataDir, want)
	if err != nil {
		return nil, err
	}
	out.failures = append(out.failures, rec.failures...)
	out.findings = rec.findings()
	return out, nil
}

// identityGap closes the scheduler's books over the open-loop phase:
// intervals demanded − pacer ticks delivered − ticks skipped, which is 0
// up to one in-flight interval per pacer.
func identityGap(p *plan, res *loadResult) (gap, tolerance float64) {
	var pool []pacedInterval
	for _, g := range p.mutGens {
		pool = append(pool, g.paced...)
	}
	demanded, pacers := demandedTicks(len(p.stable), pool, res.before.at, res.after.at)
	delivered := telValue(res.after.tel, "flower_registry_pace_ticks_total", nil) - telValue(res.before.tel, "flower_registry_pace_ticks_total", nil)
	skipped := float64(res.after.sched.SkippedTicks - res.before.sched.SkippedTicks)
	return demanded - delivered - skipped, float64(pacers)
}
