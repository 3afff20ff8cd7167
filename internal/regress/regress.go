// Package regress implements the statistical machinery behind Flower's
// Workload Dependency Analysis (§3.1): ordinary-least-squares linear
// regression ("Flower uses linear regression model to estimate
// relationships between resources in different layers", Eq. 1), Pearson
// correlation (the 0.95 coefficient quoted for Fig. 2), and lagged
// cross-correlation for discovering delayed dependencies between layers.
package regress

import (
	"fmt"
	"math"
)

// Model is a fitted simple linear regression y = Intercept + Slope·x + ε.
type Model struct {
	Intercept float64 // β0 in Eq. 1
	Slope     float64 // β1 in Eq. 1
	R         float64 // Pearson correlation between x and y
	R2        float64 // coefficient of determination
	StdErr    float64 // residual standard error
	SlopeSE   float64 // standard error of the slope estimate
	TStat     float64 // t statistic of the slope (slope / slopeSE)
	N         int     // observations used
}

// Predict evaluates the fitted line at x.
func (m Model) Predict(x float64) float64 { return m.Intercept + m.Slope*x }

// String renders the model the way the paper writes Eq. 2.
func (m Model) String() string {
	return fmt.Sprintf("y ≈ %.6g·x + %.4g (r=%.3f, R²=%.3f, n=%d)", m.Slope, m.Intercept, m.R, m.R2, m.N)
}

// Fit estimates a simple OLS regression of y on x. It requires at least
// three observations and non-zero variance in x.
func Fit(x, y []float64) (Model, error) {
	if len(x) != len(y) {
		return Model{}, fmt.Errorf("regress: length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n < 3 {
		return Model{}, fmt.Errorf("regress: need at least 3 observations, got %d", n)
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		if bad(x[i]) || bad(y[i]) {
			return Model{}, fmt.Errorf("regress: non-finite observation at index %d", i)
		}
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)

	var sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 {
		return Model{}, fmt.Errorf("regress: x has zero variance")
	}

	slope := sxy / sxx
	intercept := my - slope*mx

	// Residual sum of squares and derived diagnostics.
	var rss float64
	for i := 0; i < n; i++ {
		r := y[i] - (intercept + slope*x[i])
		rss += r * r
	}
	r2 := 0.0
	if syy > 0 {
		r2 = 1 - rss/syy
	}
	r := 0.0
	if syy > 0 {
		r = sxy / math.Sqrt(sxx*syy)
	}
	stderr := math.Sqrt(rss / float64(n-2))
	slopeSE := stderr / math.Sqrt(sxx)
	tstat := math.Inf(1)
	if slopeSE > 0 {
		tstat = slope / slopeSE
	}
	return Model{
		Intercept: intercept,
		Slope:     slope,
		R:         r,
		R2:        r2,
		StdErr:    stderr,
		SlopeSE:   slopeSE,
		TStat:     tstat,
		N:         n,
	}, nil
}

// Pearson computes the Pearson correlation coefficient of x and y, or NaN
// for degenerate inputs.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	n := len(x)
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CrossCorrelation computes Pearson correlation between x and y with y
// shifted by lag samples: positive lag correlates x[i] with y[i+lag]
// (x leads y). It returns NaN when the overlap is shorter than 2.
func CrossCorrelation(x, y []float64, lag int) float64 {
	if lag >= 0 {
		if lag >= len(y) {
			return math.NaN()
		}
		n := len(x)
		if len(y)-lag < n {
			n = len(y) - lag
		}
		return Pearson(x[:n], y[lag:lag+n])
	}
	// Negative lag: y leads x.
	return CrossCorrelation(y, x, -lag)
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
