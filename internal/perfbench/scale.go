package perfbench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// Scale benchmarks: the scheduler driven far past what registry-backed
// flows can reach on one box. Each synthetic job is a paced tick callback
// doing the minimum credible work (an atomic add, optionally a CPU burn
// for the skew grids), so the measurement isolates the execution plane
// itself — wheel advancement, batching, queue locking — from
// simulation cost. Three lab grids ride on one config:
//
//   - scale: N paced jobs sustained for a wall window; the score is tick
//     fidelity (delivered intervals / demanded intervals).
//   - thundering herd: all N jobs register in one burst; SetupSeconds is
//     the burst cost and the fidelity window starts immediately after, so
//     a scheduler that melts under simultaneous arrivals fails the grid.
//   - skewed durations: a fraction of jobs burn CPU every fire, creating
//     hot shards; the grid holds shard-affine execution to the same
//     fidelity bar under that imbalance.

// ScaleBenchConfig sizes one synthetic scale measurement.
type ScaleBenchConfig struct {
	// Jobs is how many periodic jobs pace concurrently.
	Jobs int
	// Interval is each job's firing interval.
	Interval time.Duration
	// Wall is the measurement window (after registration completes).
	Wall time.Duration
	// Shards/Workers size the scheduler (zero: defaults).
	Shards  int
	Workers int
	// HeavyFrac of the jobs burn HeavyWork of CPU on every fire; the rest
	// are a single atomic add. Zero means a uniform light load.
	HeavyFrac float64
	HeavyWork time.Duration
}

func (c ScaleBenchConfig) withDefaults() ScaleBenchConfig {
	if c.Jobs <= 0 {
		c.Jobs = 10000
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Wall <= 0 {
		c.Wall = 2 * time.Second
	}
	return c
}

// ScaleBenchResult is one synthetic scale measurement.
type ScaleBenchResult struct {
	Name string `json:"name"`
	Jobs int    `json:"jobs"`
	// IntervalMS restates the per-job firing interval.
	IntervalMS float64 `json:"interval_ms"`
	// SetupSeconds is the thundering-herd cost: registering every job in
	// one tight burst.
	SetupSeconds float64 `json:"setup_seconds"`
	WallSeconds  float64 `json:"wall_seconds"`
	// Ticks counts intervals delivered to callbacks during the window
	// (catch-up batches count every interval they carry).
	Ticks       uint64  `json:"ticks"`
	TicksPerSec float64 `json:"ticks_per_sec"`
	// DemandPerSec is Jobs/Interval: the tick rate a perfect scheduler
	// would deliver; Fidelity is the achieved fraction of it (1.0 = every
	// job fired on schedule all window).
	DemandPerSec float64 `json:"demand_per_sec"`
	Fidelity     float64 `json:"fidelity"`
	LateRuns     uint64  `json:"late_runs"`
	SkippedTicks uint64  `json:"skipped_ticks"`
	// MeanBatch/MaxBatch describe how much lock amortisation batching won.
	MeanBatch  float64 `json:"mean_batch"`
	MaxBatch   int     `json:"max_batch"`
	Goroutines int     `json:"goroutines"`
}

// BenchSchedDrainHot measures one traversal of the worker drain loop —
// pop batch → execute → flush stats → re-queue — via a chunked job that
// hands control back every chunk. The loop is budgeted at 0 allocs/op in
// the obs suite: at 100k paced flows even one allocation per execution
// would put the garbage collector on the hot path.
func BenchSchedDrainHot(b *testing.B) {
	plane := sched.New(sched.Config{Shards: 1, Workers: 1})
	defer plane.Close()
	ch := make(chan struct{})
	tk, err := plane.Submit("drain-hot", sched.ClassBatch, func() bool {
		ch <- struct{}{}
		return false
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the freelists past their growth phase before measuring.
	for i := 0; i < 64; i++ {
		<-ch
	}
	b.ReportAllocs()
	for b.Loop() {
		<-ch
	}
	// The job is mid-send when the loop stops: keep draining until Stop
	// has seen the in-flight chunk return.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
			case <-done:
				return
			}
		}
	}()
	tk.Stop()
	close(done)
}

// spin burns roughly d of CPU without sleeping, imitating a trial chunk
// that computes instead of waits.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// RunSchedScaleBench registers cfg.Jobs periodic jobs in one burst and
// measures delivered tick fidelity over cfg.Wall.
func RunSchedScaleBench(name string, cfg ScaleBenchConfig) (ScaleBenchResult, error) {
	cfg = cfg.withDefaults()
	plane := sched.New(sched.Config{Shards: cfg.Shards, Workers: cfg.Workers})
	defer plane.Close()

	var ticks atomic.Uint64
	heavyEvery := 0
	if cfg.HeavyFrac > 0 {
		heavyEvery = int(1 / cfg.HeavyFrac)
	}
	light := func(n int) error { ticks.Add(uint64(n)); return nil }
	heavy := func(n int) error {
		ticks.Add(uint64(n))
		spin(cfg.HeavyWork)
		return nil
	}

	setupStart := time.Now()
	tickets := make([]*sched.Ticket, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		tick := light
		if heavyEvery > 0 && i%heavyEvery == 0 {
			tick = heavy
		}
		tk, err := plane.Periodic(fmt.Sprintf("scale-%06d", i), sched.ClassFlow, cfg.Interval, tick, nil)
		if err != nil {
			return ScaleBenchResult{}, err
		}
		tickets = append(tickets, tk)
	}
	setup := time.Since(setupStart)

	stop := make(chan struct{})
	var peak int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); sampleGoroutines(stop, &peak) }()

	before := ticks.Load()
	start := time.Now()
	time.Sleep(cfg.Wall)
	delivered := ticks.Load() - before
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	st := plane.Stats()
	for _, tk := range tickets {
		tk.Stop()
	}

	demand := float64(cfg.Jobs) / cfg.Interval.Seconds()
	perSec := float64(delivered) / elapsed.Seconds()
	return ScaleBenchResult{
		Name:         name,
		Jobs:         cfg.Jobs,
		IntervalMS:   float64(cfg.Interval) / float64(time.Millisecond),
		SetupSeconds: setup.Seconds(),
		WallSeconds:  elapsed.Seconds(),
		Ticks:        delivered,
		TicksPerSec:  perSec,
		DemandPerSec: demand,
		Fidelity:     perSec / demand,
		LateRuns:     st.LateRuns,
		SkippedTicks: st.SkippedTicks,
		MeanBatch:    st.MeanBatch(),
		MaxBatch:     st.MaxBatch,
		Goroutines:   peak,
	}, nil
}
