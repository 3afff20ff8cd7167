// Repository-level micro-benchmarks of the simulation's hot paths. The
// paper's artefacts are checked by internal/exper's TestScorecard (see
// EXPERIMENTS.md); latency, throughput and CPU of the running daemon are
// measured by cmd/e2ebench.
package flower_test

import (
	"testing"
	"time"

	"repro/internal/nsga2"
	"repro/internal/regress"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"

	flower "repro"
)

// BenchmarkAggregateVsPerRecord compares the two data paths of the
// simulation: the count-based aggregate path used by all
// experiments against the faithful per-record path, on the same 30-minute
// managed run. The ratio of their ns/op is the fast path's speedup.
func BenchmarkAggregateVsPerRecord(b *testing.B) {
	run := func(b *testing.B, perRecord bool) {
		for i := 0; i < b.N; i++ {
			spec, err := flower.DefaultClickstream(3000)
			if err != nil {
				b.Fatal(err)
			}
			mgr, err := flower.New(spec, sim.Options{
				Step: 10 * time.Second, Seed: 1, PerRecord: perRecord,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mgr.Run(30 * time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("aggregate", func(b *testing.B) { run(b, false) })
	b.Run("per-record", func(b *testing.B) { run(b, true) })
}

// BenchmarkStreamPutRecord measures the ingestion fast path.
func BenchmarkStreamPutRecord(b *testing.B) {
	st, err := stream.New("bench", 64, nil)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	payload := []byte("user-1,/page/2,https://example.com,flower-loadgen/1.0,1503878400")
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "user-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.PutRecord(now, keys[i%len(keys)], payload)
		if i%1000 == 999 {
			b.StopTimer()
			st.DrainAll(1 << 20)
			st.Tick(now, time.Second)
			b.StartTimer()
		}
	}
}

// BenchmarkGeneratorTick measures a full generator tick at 1000 rec/s.
func BenchmarkGeneratorTick(b *testing.B) {
	st, err := stream.New("bench", 8, nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.NewGenerator(workload.GeneratorConfig{
		Pattern: workload.Constant(1000), Poisson: true, Seed: 1,
	}, st, nil)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Tick(now, time.Second)
		b.StopTimer()
		st.DrainAll(1 << 20)
		st.Tick(now, time.Second)
		b.StartTimer()
	}
}

// BenchmarkNSGA2ShareAnalysis measures one full Fig. 4-sized NSGA-II solve.
func BenchmarkNSGA2ShareAnalysis(b *testing.B) {
	p := share.PaperExampleProblem(0.29, 0.015, 0.10, 0.00065)
	for i := 0; i < b.N; i++ {
		if _, err := share.Analyze(p, nsga2.Config{PopSize: 100, Generations: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionFit measures an Eq. 2-sized OLS fit (550 points).
func BenchmarkRegressionFit(b *testing.B) {
	x := make([]float64, 550)
	y := make([]float64, 550)
	for i := range x {
		x[i] = float64(i)
		y[i] = 0.0002*x[i] + 4.8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagedSimMinute measures one simulated minute of the fully
// managed default flow (six 10s ticks at ~3000 rec/s).
func BenchmarkManagedSimMinute(b *testing.B) {
	spec, err := flower.DefaultClickstream(3000)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := flower.New(spec, sim.Options{Step: 10 * time.Second, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Run(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
