package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFitExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{7, 9, 11, 13, 15} // y = 2x + 5
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Slope, 2, 1e-12) || !approx(m.Intercept, 5, 1e-12) {
		t.Fatalf("fit = %+v, want slope 2 intercept 5", m)
	}
	if !approx(m.R2, 1, 1e-12) || !approx(m.R, 1, 1e-12) {
		t.Fatalf("R=%v R2=%v, want 1", m.R, m.R2)
	}
	if !approx(m.Predict(10), 25, 1e-12) {
		t.Fatalf("Predict(10) = %v, want 25", m.Predict(10))
	}
	if m.N != 5 {
		t.Fatalf("N = %d", m.N)
	}
}

func TestFitNoisyLineRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Paper's Eq. 2 shape: CPU ≈ 0.0002·WriteCapacity + 4.8.
	n := 500
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64() * 100000
		y[i] = 0.0002*x[i] + 4.8 + rng.NormFloat64()*0.5
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(m.Slope, 0.0002, 2e-5) {
		t.Fatalf("slope = %v, want ≈0.0002", m.Slope)
	}
	if !approx(m.Intercept, 4.8, 0.3) {
		t.Fatalf("intercept = %v, want ≈4.8", m.Intercept)
	}
	if m.R < 0.99 {
		t.Fatalf("R = %v, want > 0.99", m.R)
	}
	if m.TStat < 10 {
		t.Fatalf("slope t-stat = %v, want strongly significant", m.TStat)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Fit([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("two points accepted")
	}
	if _, err := Fit([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Fatal("zero x-variance accepted")
	}
	if _, err := Fit([]float64{1, 2, math.NaN()}, []float64{1, 2, 3}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestModelString(t *testing.T) {
	m := Model{Slope: 0.0002, Intercept: 4.8, R: 0.95, R2: 0.9, N: 550}
	s := m.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestPearsonMatchesFitR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 10
		y[i] = 3*x[i] + rng.NormFloat64()
	}
	m, err := Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if p := Pearson(x, y); !approx(p, m.R, 1e-12) {
		t.Fatalf("Pearson %v != Fit R %v", p, m.R)
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !approx(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, neg); !approx(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Fatal("zero-variance correlation should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Fatal("single-point correlation should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 2, 3}, []float64{1, 2})) {
		t.Fatal("length mismatch should be NaN")
	}
}

// Property: correlation is symmetric and within [-1, 1].
func TestPearsonBoundsProperty(t *testing.T) {
	f := func(pairs []struct{ X, Y int16 }) bool {
		if len(pairs) < 3 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			xs[i] = float64(p.X)
			ys[i] = float64(p.Y)
		}
		r := Pearson(xs, ys)
		if math.IsNaN(r) {
			return true // degenerate variance
		}
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		return approx(r, Pearson(ys, xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossCorrelationFindsLag(t *testing.T) {
	// y is x delayed by 3 samples.
	n := 120
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)/7) + rng.NormFloat64()*0.05
	}
	y := make([]float64, n)
	for i := range y {
		if i >= 3 {
			y[i] = x[i-3]
		}
	}
	// The correlation peaks at lag 3 over [-10, 10]; with x delayed
	// relative to y instead, it peaks at lag -3.
	at3 := CrossCorrelation(x, y, 3)
	if at3 < 0.9 {
		t.Fatalf("corr at lag 3 = %v, want > 0.9", at3)
	}
	for l := -10; l <= 10; l++ {
		if c := CrossCorrelation(x, y, l); l != 3 && c >= at3 {
			t.Fatalf("corr at lag %d = %v, not below lag 3's %v", l, c, at3)
		}
		if c := CrossCorrelation(y, x, l); l != -3 && c >= at3 {
			t.Fatalf("reverse corr at lag %d = %v, not below lag -3's %v", l, c, at3)
		}
	}
}

func TestCrossCorrelationEdges(t *testing.T) {
	if !math.IsNaN(CrossCorrelation([]float64{1, 2}, []float64{1, 2}, 5)) {
		t.Fatal("lag beyond series should be NaN")
	}
	if !math.IsNaN(CrossCorrelation([]float64{1, 2}, []float64{1, 2}, -5)) {
		t.Fatal("negative lag beyond series should be NaN")
	}
	if !math.IsNaN(CrossCorrelation([]float64{1, 2, 3}, []float64{4, 4, 4}, 0)) {
		t.Fatal("zero-variance overlap should be NaN")
	}
}

// Property: fitting y = a·x + b exactly recovers a and b for random a, b.
func TestFitRecoveryProperty(t *testing.T) {
	f := func(aRaw, bRaw int16, seed int64) bool {
		a := float64(aRaw) / 100
		b := float64(bRaw) / 100
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 10)
		y := make([]float64, 10)
		for i := range x {
			x[i] = rng.Float64()*100 + float64(i) // guarantees variance
			y[i] = a*x[i] + b
		}
		m, err := Fit(x, y)
		if err != nil {
			return false
		}
		return approx(m.Slope, a, 1e-6) && approx(m.Intercept, b, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: R² of any fit is at most 1, and residual error is non-negative.
func TestFitDiagnosticsBoundsProperty(t *testing.T) {
	f := func(ys []int8, seed int64) bool {
		if len(ys) < 3 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, len(ys))
		y := make([]float64, len(ys))
		for i := range ys {
			x[i] = float64(i) + rng.Float64()
			y[i] = float64(ys[i])
		}
		m, err := Fit(x, y)
		if err != nil {
			return true
		}
		return m.R2 <= 1+1e-9 && m.StdErr >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
