// Command e2ebench is the whole-daemon benchmark: it builds flowerd from
// the checkout, starts it as a subprocess per workload, drives it through
// the repro/client SDK from this one process — an open-loop phase at a
// fixed arrival rate, then a closed-loop phase — checks every answer, and
// prints each metric by name. With -trace 1 it produces the per-layer
// numbers instead. README.md in this directory is the manual.
//
//	go run -C cmd/e2ebench . -seed 1                  every workload, end to end
//	go run -C cmd/e2ebench . -workload mutate -trace 1
//	go run -C cmd/e2ebench . -selfcheck
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run one workload (mutate, fleet, read, mixed) and print one JSON result line last; empty: all, as a table")
	seed := flag.Int64("seed", 1, "seed for ids, knob values and the request sequence")
	seconds := flag.Int("seconds", defaultSeconds, "seconds measured per run (open-loop plus closed-loop phase)")
	trace := flag.Int("trace", 0, "1: per-layer run (telemetry deltas, in-process plane with spans, ladder); 0: end-to-end run")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets and fail if any end-to-end median moves by more than its bound in BENCHMARK.json")
	history := flag.String("history", "", "append one compact JSON row for this invocation to FILE")
	traceOut := flag.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace.json in the checkout)")
	flag.Parse()

	// Two Ps beyond the cores: a generator returning from its nanosleep
	// must find a P at once, or the wait for one (behind the watcher's
	// decode, say) reads as generator lateness. The extra Ps add no work.
	runtime.GOMAXPROCS(runtime.NumCPU() + 2)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	code := run(ctx, options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		selfcheck: *selfcheck, history: *history, traceOut: *traceOut,
	})
	cancel()
	os.Exit(code)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 22

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	selfcheck bool
	history   string
	traceOut  string
}

// phases splits the measured seconds: three quarters open loop (rounded
// to whole pacer ticks), the rest closed loop.
func phases(seconds int) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	open = (total * 3 / 4).Truncate(wallTick)
	return open, total - open
}

func (o options) config(size sizing) runConfig {
	open, closed := phases(o.seconds)
	gens := min(max(runtime.NumCPU(), 2), 8)
	return runConfig{size: size, seed: o.seed, warm: 2 * time.Second, open: open, closed: closed, setups: 3, gens: gens, ladder: fullLadder}
}

func run(ctx context.Context, o options) int {
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be at least 1")
		return 2
	}
	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer e.close()

	sizes := workloads
	if o.workload != "" {
		size, ok := workloadByName(o.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", o.workload)
			return 2
		}
		sizes = []sizing{size}
	}
	if o.selfcheck {
		return selfCheck(ctx, e, o, sizes)
	}
	outs, err := runSet(ctx, e, o, sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	code := 0
	for _, out := range outs {
		printOutcome(os.Stdout, out, o.trace)
		if !out.correct() {
			code = 1
		}
	}
	if o.history != "" {
		if err := appendHistory(o.history, e.root, o.seconds, outs); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: history:", err)
			code = 2
		}
	}
	if o.workload != "" {
		// The driver's contract: one JSON object, last line of stdout.
		fmt.Println(resultLine(outs[0], o.trace))
	}
	return code
}

func runSet(ctx context.Context, e *env, o options, sizes []sizing) ([]*outcome, error) {
	var outs []*outcome
	for _, size := range sizes {
		var out *outcome
		var err error
		if o.trace {
			out, err = runTraced(ctx, e, o.config(size), o.traceOut)
		} else {
			out, err = runEndToEnd(ctx, e, o.config(size))
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", size.name, err)
		}
		outs = append(outs, out)
	}
	return outs, nil
}
