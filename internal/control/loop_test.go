package control

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/metricstore"
	"repro/internal/timeseries"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

// plant is a toy first-order resource plant: utilisation = load/(u·cap)·100.
type plant struct {
	load float64 // work per second
	cap  float64 // work per second one allocation unit serves
	u    float64 // allocation
}

func (p *plant) util() float64 {
	v := p.load / (p.u * p.cap) * 100
	if v > 100 {
		v = 100
	}
	return v
}

func TestMetricSensor(t *testing.T) {
	ms := metricstore.NewStore()
	for i := 0; i < 10; i++ {
		storePut(ms, "ns", "cpu", nil, t0.Add(time.Duration(i)*time.Minute), float64(i*10))
	}
	s := &MetricSensor{Store: ms, Namespace: "ns", Metric: "cpu", Stat: timeseries.AggMean}
	got, err := s.Measure(t0.Add(9*time.Minute), 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Window [4m, 9m]: values 40..90, mean 65.
	if math.Abs(got-65) > 1e-9 {
		t.Fatalf("Measure = %v, want 65", got)
	}
	if _, err := s.Measure(t0.Add(100*time.Hour), time.Minute); err == nil {
		t.Fatal("empty window did not error")
	}
	missing := &MetricSensor{Store: ms, Namespace: "ns", Metric: "absent", Stat: timeseries.AggMean}
	if _, err := missing.Measure(t0, time.Minute); err == nil {
		t.Fatal("missing metric did not error")
	}
	if s.Name() == "" {
		t.Fatal("empty sensor name")
	}
}

func TestFuncActuatorClamps(t *testing.T) {
	v := 5.0
	a := &FuncActuator{
		ActuatorName: "vms",
		Get:          func() float64 { return v },
		Apply:        func(_ time.Time, nv float64) error { v = nv; return nil },
		Min:          1, Max: 10,
	}
	if err := a.Set(t0, 50); err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Fatalf("clamped set = %v, want 10", v)
	}
	if err := a.Set(t0, -3); err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("clamped set = %v, want 1", v)
	}
	lo, hi := a.Bounds()
	if lo != 1 || hi != 10 || a.Name() != "vms" {
		t.Fatal("bounds/name wrong")
	}
}

func TestNewLoopValidation(t *testing.T) {
	c, _ := NewFixedGain(0.1)
	s := &MetricSensor{Store: metricstore.NewStore(), Namespace: "n", Metric: "m"}
	a := &FuncActuator{ActuatorName: "a", Get: func() float64 { return 0 }, Apply: func(time.Time, float64) error { return nil }, Max: 10}
	cases := []struct {
		cfg LoopConfig
		c   Controller
		s   Sensor
		a   Actuator
	}{
		{LoopConfig{Name: "", Window: time.Minute}, c, s, a},
		{LoopConfig{Name: "x", Window: 0}, c, s, a},
		{LoopConfig{Name: "x", Window: time.Minute, DeadBand: -1}, c, s, a},
		{LoopConfig{Name: "x", Window: time.Minute}, nil, s, a},
		{LoopConfig{Name: "x", Window: time.Minute}, c, nil, a},
		{LoopConfig{Name: "x", Window: time.Minute}, c, s, nil},
	}
	for i, tc := range cases {
		if _, err := NewLoop(tc.cfg, tc.c, tc.s, tc.a); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewLoop(LoopConfig{Name: "x", Window: time.Minute}, c, s, a); err != nil {
		t.Fatal(err)
	}
}

// runClosedLoop runs a plant under the given controller for n one-minute
// windows and returns the utilisation trajectory.
func runClosedLoop(t *testing.T, ctrl Controller, p *plant, ref float64, n int) []float64 {
	t.Helper()
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "plant", Metric: "util", Stat: timeseries.AggMean}
	act := &FuncActuator{
		ActuatorName: "alloc",
		Get:          func() float64 { return p.u },
		Apply:        func(_ time.Time, v float64) error { p.u = v; return nil },
		Min:          1, Max: 1000,
	}
	loop, err := NewLoop(LoopConfig{Name: "test", Ref: ref, Window: time.Minute}, ctrl, sensor, act)
	if err != nil {
		t.Fatal(err)
	}
	var utils []float64
	now := t0
	for i := 0; i < n; i++ {
		// One minute of 10s samples.
		for j := 0; j < 6; j++ {
			now = now.Add(10 * time.Second)
			storePut(ms, "plant", "util", nil, now, p.util())
		}
		loop.Step(now)
		utils = append(utils, p.util())
	}
	return utils
}

func TestClosedLoopAdaptiveConverges(t *testing.T) {
	p := &plant{load: 3000, cap: 100, u: 2} // util starts at 100 (capped)
	ctrl, _ := NewAdaptiveGain(0.05, 0.005, 0.01, 0.5)
	utils := runClosedLoop(t, ctrl, p, 60, 40)
	final := utils[len(utils)-1]
	if math.Abs(final-60) > 10 {
		t.Fatalf("final utilisation = %v, want ≈60", final)
	}
	// Allocation should have grown from 2 toward load/(0.6·cap) = 50.
	if p.u < 30 {
		t.Fatalf("final allocation = %v, want ≈50", p.u)
	}
}

func TestClosedLoopAdaptiveSettlesFasterThanFixed(t *testing.T) {
	settle := func(ctrl Controller) int {
		p := &plant{load: 6000, cap: 100, u: 2}
		utils := runClosedLoop(t, ctrl, p, 60, 60)
		for i := range utils {
			// Settled: this and all later samples within ±10 of ref.
			ok := true
			for _, v := range utils[i:] {
				if math.Abs(v-60) > 10 {
					ok = false
					break
				}
			}
			if ok {
				return i
			}
		}
		return len(utils)
	}
	adaptive, _ := NewAdaptiveGain(0.02, 0.004, 0.01, 0.5)
	fixed, _ := NewFixedGain(0.02) // same initial gain, no adaptation
	sa := settle(adaptive)
	sf := settle(fixed)
	if sa >= sf {
		t.Fatalf("adaptive settled in %d windows, fixed in %d; want adaptive faster", sa, sf)
	}
}

func TestLoopDeadBandSuppressesChurn(t *testing.T) {
	p := &plant{load: 600, cap: 100, u: 10} // util exactly 60
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "plant", Metric: "util", Stat: timeseries.AggMean}
	act := &FuncActuator{
		ActuatorName: "alloc",
		Get:          func() float64 { return p.u },
		Apply:        func(_ time.Time, v float64) error { p.u = v; return nil },
		Min:          1, Max: 100,
	}
	ctrl, _ := NewAdaptiveGain(0.05, 0.005, 0.01, 0.5)
	loop, err := NewLoop(LoopConfig{Name: "db", Ref: 58, Window: time.Minute, DeadBand: 5}, ctrl, sensor, act)
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	for i := 0; i < 10; i++ {
		now = now.Add(time.Minute)
		storePut(ms, "plant", "util", nil, now, p.util())
		loop.Step(now)
	}
	if got := loop.Actions(); got != 0 {
		t.Fatalf("actions inside dead-band = %d, want 0", got)
	}
	if len(loop.Decisions()) != 10 {
		t.Fatalf("decisions = %d, want 10 recorded", len(loop.Decisions()))
	}
}

func TestLoopQuantize(t *testing.T) {
	p := &plant{load: 900, cap: 100, u: 4}
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "plant", Metric: "util", Stat: timeseries.AggMean}
	var applied []float64
	act := &FuncActuator{
		ActuatorName: "shards",
		Get:          func() float64 { return p.u },
		Apply: func(_ time.Time, v float64) error {
			applied = append(applied, v)
			p.u = v
			return nil
		},
		Min: 1, Max: 100,
	}
	ctrl, _ := NewFixedGain(0.07)
	loop, err := NewLoop(LoopConfig{Name: "q", Ref: 50, Window: time.Minute, Quantize: true}, ctrl, sensor, act)
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	for i := 0; i < 5; i++ {
		now = now.Add(time.Minute)
		storePut(ms, "plant", "util", nil, now, p.util())
		loop.Step(now)
	}
	for _, v := range applied {
		if v != math.Trunc(v) {
			t.Fatalf("non-integer actuation %v with Quantize", v)
		}
	}
}

func TestLoopTickCadence(t *testing.T) {
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "p", Metric: "m", Stat: timeseries.AggMean}
	u := 10.0
	act := &FuncActuator{
		ActuatorName: "a",
		Get:          func() float64 { return u },
		Apply:        func(_ time.Time, v float64) error { u = v; return nil },
		Min:          1, Max: 100,
	}
	ctrl, _ := NewFixedGain(0.1)
	loop, err := NewLoop(LoopConfig{Name: "cad", Ref: 50, Window: 5 * time.Minute}, ctrl, sensor, act)
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	for i := 0; i < 20; i++ { // 20 one-minute ticks = 4 windows
		now = now.Add(time.Minute)
		storePut(ms, "p", "m", nil, now, 80)
		loop.Tick(now, time.Minute)
	}
	if got := len(loop.Decisions()); got != 4 {
		t.Fatalf("decisions over 20 minutes at 5m window = %d, want 4", got)
	}
}

func TestLoopRecordsSensorErrors(t *testing.T) {
	ms := metricstore.NewStore() // no data at all
	sensor := &MetricSensor{Store: ms, Namespace: "p", Metric: "m", Stat: timeseries.AggMean}
	u := 10.0
	act := &FuncActuator{
		ActuatorName: "a",
		Get:          func() float64 { return u },
		Apply:        func(_ time.Time, v float64) error { u = v; return nil },
		Min:          1, Max: 100,
	}
	ctrl, _ := NewFixedGain(0.1)
	loop, _ := NewLoop(LoopConfig{Name: "err", Ref: 50, Window: time.Minute}, ctrl, sensor, act)
	loop.Step(t0)
	ds := loop.Decisions()
	if len(ds) != 1 || ds[0].Note == "" || ds[0].Applied {
		t.Fatalf("sensor-error decision not recorded properly: %+v", ds)
	}
	if u != 10 {
		t.Fatalf("actuator moved on sensor error: %v", u)
	}
}

func TestLoopSetRef(t *testing.T) {
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "p", Metric: "m", Stat: timeseries.AggMean}
	u := 10.0
	act := &FuncActuator{
		ActuatorName: "a",
		Get:          func() float64 { return u },
		Apply:        func(_ time.Time, v float64) error { u = v; return nil },
		Min:          1, Max: 100,
	}
	ctrl, _ := NewFixedGain(0.1)
	loop, _ := NewLoop(LoopConfig{Name: "ref", Ref: 50, Window: time.Minute}, ctrl, sensor, act)
	if loop.Ref() != 50 {
		t.Fatal("initial ref")
	}
	loop.SetRef(70)
	if loop.Ref() != 70 {
		t.Fatal("SetRef did not apply")
	}
	if loop.Name() != "ref" || loop.Controller() != Controller(ctrl) {
		t.Fatal("accessors wrong")
	}
}

func TestLoopActuatorBoundsRespected(t *testing.T) {
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "p", Metric: "m", Stat: timeseries.AggMean}
	u := 10.0
	act := &FuncActuator{
		ActuatorName: "a",
		Get:          func() float64 { return u },
		Apply: func(_ time.Time, v float64) error {
			if v < 1 || v > 12 {
				return fmt.Errorf("out of bounds %v", v)
			}
			u = v
			return nil
		},
		Min: 1, Max: 12,
	}
	ctrl, _ := NewFixedGain(10) // huge gain forces big commands
	loop, _ := NewLoop(LoopConfig{Name: "bounds", Ref: 50, Window: time.Minute}, ctrl, sensor, act)
	now := t0
	for i := 0; i < 5; i++ {
		now = now.Add(time.Minute)
		storePut(ms, "p", "m", nil, now, 100)
		loop.Step(now)
	}
	if u != 12 {
		t.Fatalf("u = %v, want pinned at max 12", u)
	}
}

func TestPlantGuardPreventsQuantizationLimitCycle(t *testing.T) {
	// At 1000 load units and ref 60, the ideal allocation is 1.67: no
	// integer satisfies the ±5 dead-band (1 → 100%, 2 → 50%). Without the
	// guard the integrator walks down to 1 and saturates the layer; with
	// it the loop must hold at 2 indefinitely.
	p := &plant{load: 1000, cap: 1000, u: 2}
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "p", Metric: "u", Stat: timeseries.AggMean}
	act := &FuncActuator{
		ActuatorName: "vms",
		Get:          func() float64 { return p.u },
		Apply:        func(_ time.Time, v float64) error { p.u = v; return nil },
		Min:          1, Max: 50,
	}
	ctrl, _ := NewAdaptiveGain(0.02, 0.01, 0.01, 0.3)
	loop, err := NewLoop(LoopConfig{
		Name: "guarded", Ref: 60, Window: time.Minute,
		DeadBand: 5, Quantize: true, PlantGuard: true,
	}, ctrl, sensor, act)
	if err != nil {
		t.Fatal(err)
	}
	now := t0
	for i := 0; i < 60; i++ {
		now = now.Add(time.Minute)
		storePut(ms, "p", "u", nil, now, p.util())
		loop.Step(now)
		if p.u != 2 {
			t.Fatalf("window %d: allocation moved to %v; guard should hold at 2", i, p.u)
		}
	}
}

func TestPlantGuardCapsScaleOutOvershoot(t *testing.T) {
	// A saturated layer (y = 100) with an enormous commanded step must be
	// capped at the allocation predicted to land just under the dead-band
	// floor: u' = u·y/(ref−deadband) = 2·100/55 ≈ 3.6 → 4 after rounding.
	p := &plant{load: 100000, cap: 100, u: 2}
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "p", Metric: "u", Stat: timeseries.AggMean}
	act := &FuncActuator{
		ActuatorName: "vms",
		Get:          func() float64 { return p.u },
		Apply:        func(_ time.Time, v float64) error { p.u = v; return nil },
		Min:          1, Max: 1000,
	}
	ctrl, _ := NewFixedGain(10) // commands +400 per window unguarded
	loop, err := NewLoop(LoopConfig{
		Name: "capped", Ref: 60, Window: time.Minute,
		DeadBand: 5, Quantize: true, PlantGuard: true,
	}, ctrl, sensor, act)
	if err != nil {
		t.Fatal(err)
	}
	now := t0.Add(time.Minute)
	storePut(ms, "p", "u", nil, now, 100)
	loop.Step(now)
	if p.u != 4 {
		t.Fatalf("guarded scale-out = %v, want 4", p.u)
	}
}

func TestPlantGuardOffPreservesRawCommands(t *testing.T) {
	p := &plant{load: 100000, cap: 100, u: 2}
	ms := metricstore.NewStore()
	sensor := &MetricSensor{Store: ms, Namespace: "p", Metric: "u", Stat: timeseries.AggMean}
	act := &FuncActuator{
		ActuatorName: "vms",
		Get:          func() float64 { return p.u },
		Apply:        func(_ time.Time, v float64) error { p.u = v; return nil },
		Min:          1, Max: 1000,
	}
	ctrl, _ := NewFixedGain(10)
	loop, _ := NewLoop(LoopConfig{
		Name: "raw", Ref: 60, Window: time.Minute, DeadBand: 5, Quantize: true,
	}, ctrl, sensor, act)
	now := t0.Add(time.Minute)
	storePut(ms, "p", "u", nil, now, 100)
	loop.Step(now)
	if p.u != 402 { // 2 + 10·40
		t.Fatalf("unguarded scale-out = %v, want 402", p.u)
	}
}

func TestQuasiAdaptiveEscapesSaturatedPin(t *testing.T) {
	// A layer pinned at minimum allocation with flat y = 100 gives the
	// RLS no excitation; the b-floor must still drive u upward.
	c, _ := NewQuasiAdaptive(0.95)
	u := 1.0
	for i := 0; i < 20; i++ {
		next := c.Next(u, 100, 60)
		// Tiny numerical wobble around the RLS fixed point is fine; a
		// real scale-in under saturation is not.
		if next < u*0.99 {
			t.Fatalf("step %d: u decreased %v → %v under saturation", i, u, next)
		}
		u = next
	}
	if u < 5 {
		t.Fatalf("u = %v after 20 saturated windows, want growth", u)
	}
}

func TestLoopRuntimeTuning(t *testing.T) {
	c, err := NewFixedGain(0.1)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := NewLoop(LoopConfig{Name: "l", Ref: 60, Window: 2 * time.Minute, DeadBand: 5},
		c, stubSensor(50), &stubActuator{v: 10})
	if err != nil {
		t.Fatal(err)
	}
	loop.SetRef(70)
	loop.SetWindow(4 * time.Minute)
	loop.SetDeadBand(8)
	if loop.Ref() != 70 || loop.Window() != 4*time.Minute || loop.DeadBand() != 8 {
		t.Errorf("tuning not applied: ref=%v window=%v deadband=%v",
			loop.Ref(), loop.Window(), loop.DeadBand())
	}
	// Invalid values are ignored, not applied.
	loop.SetWindow(0)
	loop.SetDeadBand(-1)
	if loop.Window() != 4*time.Minute || loop.DeadBand() != 8 {
		t.Errorf("invalid tuning applied: window=%v deadband=%v", loop.Window(), loop.DeadBand())
	}
}

func TestLoopWindowChangeAffectsCadence(t *testing.T) {
	c, err := NewFixedGain(0.1)
	if err != nil {
		t.Fatal(err)
	}
	act := &stubActuator{v: 10}
	loop, err := NewLoop(LoopConfig{Name: "l", Ref: 60, Window: 2 * time.Minute},
		c, stubSensor(90), act)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0)
	step := 10 * time.Second
	tickUntil := func(d time.Duration, from time.Duration) time.Duration {
		for at := from; at <= d; at += step {
			loop.Tick(start.Add(at), step)
		}
		return d
	}
	tickUntil(2*time.Minute, step)
	if got := len(loop.Decisions()); got != 1 {
		t.Fatalf("decisions after one window = %d, want 1", got)
	}
	// Doubling the window halves the cadence from here on.
	loop.SetWindow(4 * time.Minute)
	tickUntil(10*time.Minute, 2*time.Minute+step)
	// Steps at 4m? No: next was scheduled before the change (4m), then 8m.
	if got := len(loop.Decisions()); got != 3 {
		t.Fatalf("decisions after 10 min with widened window = %d, want 3", got)
	}
}

// stubSensor always measures the given value.
func stubSensor(v float64) Sensor { return constSensor(v) }

type constSensor float64

func (c constSensor) Measure(time.Time, time.Duration) (float64, error) { return float64(c), nil }
func (c constSensor) Name() string                                      { return "const" }

// stubActuator records the last applied value.
type stubActuator struct{ v float64 }

func (a *stubActuator) Value() float64                   { return a.v }
func (a *stubActuator) Set(_ time.Time, v float64) error { a.v = v; return nil }
func (a *stubActuator) Bounds() (float64, float64)       { return 0, 1 << 20 }
func (a *stubActuator) Name() string                     { return "stub" }
