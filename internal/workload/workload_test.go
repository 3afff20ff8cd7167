package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kvstore"
	"repro/internal/metricstore"
	"repro/internal/stream"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestConstantAndStep(t *testing.T) {
	if got := Constant(500).Rate(time.Hour); got != 500 {
		t.Fatalf("Constant = %v", got)
	}
	s := Step{Before: 100, After: 900, At: 10 * time.Minute}
	if got := s.Rate(9 * time.Minute); got != 100 {
		t.Fatalf("Step before = %v", got)
	}
	if got := s.Rate(10 * time.Minute); got != 900 {
		t.Fatalf("Step at = %v", got)
	}
}

func TestRamp(t *testing.T) {
	r := Ramp{From: 100, To: 500, Start: 10 * time.Minute, Length: 20 * time.Minute}
	if got := r.Rate(0); got != 100 {
		t.Fatalf("ramp at 0 = %v", got)
	}
	if got := r.Rate(20 * time.Minute); !approx(got, 300, 1e-9) {
		t.Fatalf("ramp midpoint = %v, want 300", got)
	}
	if got := r.Rate(time.Hour); got != 500 {
		t.Fatalf("ramp after = %v", got)
	}
}

func TestSine(t *testing.T) {
	s := Sine{Base: 100, Amplitude: 50, Period: time.Hour}
	if got := s.Rate(0); !approx(got, 100, 1e-9) {
		t.Fatalf("sine at 0 = %v", got)
	}
	if got := s.Rate(15 * time.Minute); !approx(got, 150, 1e-9) {
		t.Fatalf("sine at quarter = %v", got)
	}
	// Amplitude larger than base must clamp at zero.
	neg := Sine{Base: 10, Amplitude: 100, Period: time.Hour}
	if got := neg.Rate(45 * time.Minute); got != 0 {
		t.Fatalf("sine clamp = %v, want 0", got)
	}
}

func TestDiurnal(t *testing.T) {
	d := Diurnal{Floor: 100, Peak: 1000, Day: 24 * time.Hour}
	if got := d.Rate(0); !approx(got, 100, 1e-9) {
		t.Fatalf("diurnal midnight = %v, want 100", got)
	}
	if got := d.Rate(12 * time.Hour); !approx(got, 1000, 1e-9) {
		t.Fatalf("diurnal midday = %v, want 1000", got)
	}
	// Periodic.
	if a, b := d.Rate(6*time.Hour), d.Rate(30*time.Hour); !approx(a, b, 1e-6) {
		t.Fatalf("diurnal not periodic: %v vs %v", a, b)
	}
}

func TestSpike(t *testing.T) {
	s := Spike{Base: Constant(100), At: 10 * time.Minute, Length: 5 * time.Minute, Factor: 5}
	if got := s.Rate(9 * time.Minute); got != 100 {
		t.Fatalf("pre-spike = %v", got)
	}
	if got := s.Rate(12 * time.Minute); got != 500 {
		t.Fatalf("in-spike = %v", got)
	}
	if got := s.Rate(15 * time.Minute); got != 100 {
		t.Fatalf("post-spike = %v", got)
	}
}

// Property: every built-in pattern yields finite non-negative rates.
func TestPatternNonNegativeProperty(t *testing.T) {
	f := func(base, amp float64, minutes uint16) bool {
		base = math.Mod(math.Abs(base), 1e5)
		amp = math.Mod(math.Abs(amp), 1e5)
		at := time.Duration(minutes) * time.Minute
		pats := []Pattern{
			Constant(base),
			Step{Before: base, After: amp, At: time.Hour},
			Ramp{From: base, To: amp, Start: time.Hour, Length: time.Hour},
			Sine{Base: base, Amplitude: amp, Period: time.Hour},
			Diurnal{Floor: base, Peak: base + amp, Day: 24 * time.Hour},
			Spike{Base: Constant(base), At: time.Hour, Length: time.Hour, Factor: 3},
		}
		for _, p := range pats {
			r := p.Rate(at)
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorDeterministicMode(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Pattern: Constant(100), Start: t0, Seed: 1,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := g.Events(t0.Add(time.Second), time.Second)
	if len(ev) != 100 {
		t.Fatalf("deterministic mode produced %d events, want 100", len(ev))
	}
	for _, e := range ev {
		if e.UserID == "" || e.Page == "" {
			t.Fatalf("event missing fields: %+v", e)
		}
		if len(e.Encode()) == 0 {
			t.Fatal("empty encoding")
		}
	}
}

func TestGeneratorPoissonMeanConverges(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Pattern: Constant(50), Poisson: true, Start: t0, Seed: 42,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	ticks := 400
	for i := 0; i < ticks; i++ {
		total += len(g.Events(t0.Add(time.Duration(i)*time.Second), time.Second))
	}
	mean := float64(total) / float64(ticks)
	if mean < 45 || mean > 55 {
		t.Fatalf("empirical mean = %v, want ≈50", mean)
	}
}

func TestGeneratorLargeMeanNormalApprox(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{
		Pattern: Constant(5000), Poisson: true, Start: t0, Seed: 7,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 50; i++ {
		total += len(g.Events(t0.Add(time.Duration(i)*time.Second), time.Second))
	}
	mean := float64(total) / 50
	if mean < 4800 || mean > 5200 {
		t.Fatalf("empirical mean = %v, want ≈5000", mean)
	}
}

func TestGeneratorSeedReproducibility(t *testing.T) {
	mk := func() []int {
		g, _ := NewGenerator(GeneratorConfig{Pattern: Constant(80), Poisson: true, Start: t0, Seed: 99}, nil, nil)
		var counts []int
		for i := 0; i < 20; i++ {
			counts = append(counts, len(g.Events(t0.Add(time.Duration(i)*time.Second), time.Second)))
		}
		return counts
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at tick %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestGeneratorFeedsStreamAndRecordsMetrics(t *testing.T) {
	ms := metricstore.NewStore()
	st, err := stream.New("clicks", 1, ms)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(GeneratorConfig{Pattern: Constant(200), Start: t0, Seed: 3}, st, ms)
	if err != nil {
		t.Fatal(err)
	}
	g.Tick(t0.Add(time.Second), time.Second)
	if st.BacklogRecords() == 0 {
		t.Fatal("stream received no records")
	}
	if g.Offered() != 200 {
		t.Fatalf("Offered = %d, want 200", g.Offered())
	}
	rate, ok := storeLatest(ms, Namespace, MetricTargetRate, map[string]string{"Generator": "clickstream"})
	if !ok || rate.V != 200 {
		t.Fatalf("TargetRate metric = %+v ok=%v", rate, ok)
	}
}

func TestGeneratorCountsRejects(t *testing.T) {
	st, err := stream.New("clicks", 1, nil) // capacity 1000/s
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(GeneratorConfig{Pattern: Constant(1500), Start: t0, Seed: 3}, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Tick(t0.Add(time.Second), time.Second)
	if g.Rejected() == 0 {
		t.Fatal("expected rejects at 1500 rec/s against 1000 rec/s capacity")
	}
	if g.Offered() != 1500 {
		t.Fatalf("Offered = %d, want 1500", g.Offered())
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{}, nil, nil); err == nil {
		t.Fatal("nil pattern accepted")
	}
}

func TestZipfSkew(t *testing.T) {
	g, err := NewGenerator(GeneratorConfig{Pattern: Constant(1), Users: 1000, Pages: 100, Start: t0, Seed: 5}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i := 0; i < 5000; i++ {
		counts[g.Event(t0).Page]++
	}
	// Zipf: the single hottest page should dwarf the average page.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 5000/len(counts)*5 {
		t.Fatalf("hottest page count %d not skewed vs %d pages", maxC, len(counts))
	}
}

func TestQueryGeneratorIssuesReads(t *testing.T) {
	table, err := kvstore.NewTable(kvstore.Config{Name: "t", WCU: 10, RCU: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewQueryGenerator(QueryConfig{
		Pattern: Constant(100), Seed: 1, Start: time.Unix(0, 0),
	}, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Tick(time.Unix(10, 0), 10*time.Second)
	if g.Offered() != 1000 {
		t.Errorf("offered = %d, want 1000 (100 q/s x 10s, deterministic)", g.Offered())
	}
	if g.Throttled() != 0 {
		t.Errorf("throttled = %d on an over-provisioned table", g.Throttled())
	}
	if got := table.TickWCUConsumed(); got != 0 {
		t.Errorf("reads consumed WCU: %v", got)
	}
}

func TestQueryGeneratorThrottledReadsCounted(t *testing.T) {
	table, err := kvstore.NewTable(kvstore.Config{Name: "t", WCU: 10, RCU: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewQueryGenerator(QueryConfig{
		Pattern: Constant(100), Seed: 1, Start: time.Unix(0, 0),
	}, table, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Prime the table's step length (the sim scheduler ticks the table
	// every step; standalone tables default to a 1-second budget).
	table.Tick(time.Unix(0, 0), 10*time.Second)
	g.Tick(time.Unix(10, 0), 10*time.Second)
	// 1000 offered against the 100-unit tick budget plus the 100 units of
	// burst the idle priming tick banked: 200 accepted, 800 throttled.
	if g.Throttled() != 800 {
		t.Errorf("throttled = %d, want 800", g.Throttled())
	}
}

func TestQueryGeneratorValidation(t *testing.T) {
	table, err := kvstore.NewTable(kvstore.Config{Name: "t", WCU: 10, RCU: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewQueryGenerator(QueryConfig{}, table, nil); err == nil {
		t.Error("missing pattern accepted")
	}
	if _, err := NewQueryGenerator(QueryConfig{Pattern: Constant(1)}, nil, nil); err == nil {
		t.Error("nil table accepted")
	}
}

func TestQueryGeneratorPoissonDeterministicPerSeed(t *testing.T) {
	run := func() int64 {
		table, err := kvstore.NewTable(kvstore.Config{Name: "t", WCU: 10, RCU: 100000}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewQueryGenerator(QueryConfig{
			Pattern: Constant(50), Poisson: true, Seed: 9, Start: time.Unix(0, 0),
		}, table, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 20; i++ {
			g.Tick(time.Unix(int64(i*10), 0), 10*time.Second)
		}
		return g.Offered()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced %d and %d offered queries", a, b)
	}
	if a == 20*500 {
		t.Error("Poisson counts exactly equal the deterministic mean; sampler suspect")
	}
}
