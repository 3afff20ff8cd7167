package forecast

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestHoltTracksLinearTrend(t *testing.T) {
	if _, err := NewHolt(0.5, 0); err == nil {
		t.Fatal("beta 0 accepted")
	}
	h, err := NewHolt(0.8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect ramp: x(t) = 100 + 5t.
	for i := 0; i < 50; i++ {
		h.Observe(100 + 5*float64(i))
	}
	// One step ahead: 100 + 5·50 = 350.
	if got := h.Forecast(1); !approx(got, 350, 2) {
		t.Fatalf("1-step forecast = %v, want ≈350", got)
	}
	// Ten steps ahead: 100 + 5·59 = 395.
	if got := h.Forecast(10); !approx(got, 395, 5) {
		t.Fatalf("10-step forecast = %v, want ≈395", got)
	}
}

func TestPredictiveSizer(t *testing.T) {
	s := PredictiveSizer{UnitCapacity: 1000, TargetUtil: 60, Headroom: 1.1, Min: 1, Max: 50}
	// 3000 rec/s at 60% target = 5 units, ×1.1 headroom = 5.5 → ceil 6.
	if got := s.Size(3000); got != 6 {
		t.Fatalf("Size(3000) = %v, want 6", got)
	}
	if got := s.Size(-100); got != 1 {
		t.Fatalf("negative forecast = %v, want Min", got)
	}
	if got := s.Size(1e9); got != 50 {
		t.Fatalf("huge forecast = %v, want Max", got)
	}
	// Defaults: headroom 1, target 60.
	d := PredictiveSizer{UnitCapacity: 1000, Min: 1}
	if got := d.Size(600); got != 1 {
		t.Fatalf("default Size(600) = %v, want 1", got)
	}
}

// Property: Holt produces finite forecasts for finite inputs.
func TestPredictorsFiniteProperty(t *testing.T) {
	f := func(raw []int16, steps uint8) bool {
		p, err := NewHolt(0.5, 0.3)
		if err != nil {
			return false
		}
		for _, v := range raw {
			p.Observe(float64(v))
		}
		got := p.Forecast(int(steps%20) + 1)
		return !math.IsNaN(got) && !math.IsInf(got, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
