// Package deps implements Flower's Workload Dependency Analysis (§3.1):
// it mines the metric store for statistical relationships between
// resource-usage measures of *different* layers of a data analytics flow,
// fitting the paper's linear dependency model
//
//	r(L1) = β0 + β1·r(L2) + ε                                (Eq. 1)
//
// e.g. the Fig. 2 finding that ingestion arrival rate and analytics CPU
// are correlated with coefficient 0.95, summarised as
// CPU ≈ 0.0002·WriteCapacity + 4.8 (Eq. 2).
//
// Because layers react with a delay (records queue before they consume
// CPU), the analyzer also scans a configurable lag range and reports the
// lag with the strongest cross-correlation.
package deps

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/metricstore"
	"repro/internal/regress"
	"repro/internal/timeseries"
)

// Layer identifies which of the paper's three layers a measure belongs to.
type Layer string

// The three layers of a data analytics flow (§1).
const (
	Ingestion Layer = "ingestion"
	Analytics Layer = "analytics"
	Storage   Layer = "storage"
)

// MetricRef names one monitored measure of one layer.
type MetricRef struct {
	Layer      Layer
	Namespace  string
	Name       string
	Dimensions map[string]string
}

// String renders the ref for reports.
func (r MetricRef) String() string {
	return fmt.Sprintf("%s:%s/%s", r.Layer, r.Namespace, r.Name)
}

// Dependency is a discovered cross-layer relationship: To ≈ β0 + β1·From
// with From shifted Lag periods earlier.
type Dependency struct {
	From, To    MetricRef
	Model       regress.Model
	Correlation float64 // Pearson correlation at the chosen lag
	Lag         int     // periods by which From leads To (>= 0)
	Period      time.Duration
	Samples     int
}

// String renders the dependency the way §3.1 writes Eq. 2.
func (d Dependency) String() string {
	lag := ""
	if d.Lag != 0 {
		lag = fmt.Sprintf(" (lag %d×%v)", d.Lag, d.Period)
	}
	return fmt.Sprintf("%s ≈ %.6g·%s + %.4g  [r=%.3f, n=%d]%s",
		d.To, d.Model.Slope, d.From, d.Model.Intercept, d.Correlation, d.Samples, lag)
}

// Analyzer mines dependencies from a metric store.
type Analyzer struct {
	// Store is the metric repository to read.
	Store *metricstore.Store
	// Period is the resampling period used to align the two series
	// (default 1 minute, matching the paper's per-minute plots).
	Period time.Duration
	// MaxLag bounds the lag scan in periods (default 5; 0 disables).
	MaxLag int
	// MinCorrelation is the |r| threshold below which AnalyzeAll drops a
	// pair as "not dependent" — the paper notes "not all the layers are
	// dependent on each other" (default 0.7).
	MinCorrelation float64
	// MinSamples is the minimum aligned observations required (default 10).
	MinSamples int
}

func (a *Analyzer) defaults() Analyzer {
	d := *a
	if d.Period <= 0 {
		d.Period = time.Minute
	}
	if d.MaxLag < 0 {
		d.MaxLag = 0
	} else if d.MaxLag == 0 {
		d.MaxLag = 5
	}
	if d.MinCorrelation <= 0 {
		d.MinCorrelation = 0.7
	}
	if d.MinSamples <= 0 {
		d.MinSamples = 10
	}
	return d
}

// rawSeries reads the full stored series of a measure through the handle
// tier, or nil when the metric has never been published.
func rawSeries(s *metricstore.Store, ref MetricRef) *timeseries.Series {
	h, ok := s.Lookup(ref.Namespace, ref.Name, ref.Dimensions)
	if !ok {
		return nil
	}
	return h.Window(metricstore.WindowQuery{})
}

// Analyze fits the Eq. 1 model of `to` on `from`. It aligns both series on
// the analyzer period, finds the best non-negative lag (From leading To),
// and regresses the lag-shifted values.
func (a *Analyzer) Analyze(from, to MetricRef) (Dependency, error) {
	cfg := a.defaults()
	if cfg.Store == nil {
		return Dependency{}, fmt.Errorf("deps: analyzer store is required")
	}
	fromSeries := rawSeries(cfg.Store, from)
	if fromSeries == nil {
		return Dependency{}, fmt.Errorf("deps: metric %s not found", from)
	}
	toSeries := rawSeries(cfg.Store, to)
	if toSeries == nil {
		return Dependency{}, fmt.Errorf("deps: metric %s not found", to)
	}
	xs, ys := timeseries.AlignedValues(fromSeries, toSeries, cfg.Period)
	if len(xs) < cfg.MinSamples {
		return Dependency{}, fmt.Errorf("deps: only %d aligned samples for %s vs %s, need %d",
			len(xs), from, to, cfg.MinSamples)
	}

	// Scan non-negative lags only: the upstream layer leads.
	bestLag := 0
	bestCorr := regress.Pearson(xs, ys)
	for lag := 1; lag <= cfg.MaxLag; lag++ {
		c := regress.CrossCorrelation(xs, ys, lag)
		if math.Abs(c) > math.Abs(bestCorr) {
			bestCorr = c
			bestLag = lag
		}
	}

	// Shift by the chosen lag and fit.
	x, y := xs, ys
	if bestLag > 0 {
		x = xs[:len(xs)-bestLag]
		y = ys[bestLag:]
	}
	model, err := regress.Fit(x, y)
	if err != nil {
		return Dependency{}, fmt.Errorf("deps: fit %s on %s: %w", to, from, err)
	}
	return Dependency{
		From:        from,
		To:          to,
		Model:       model,
		Correlation: bestCorr,
		Lag:         bestLag,
		Period:      cfg.Period,
		Samples:     len(x),
	}, nil
}

// AnalyzeAll analyzes every ordered cross-layer pair of refs and returns
// the dependencies whose |correlation| clears MinCorrelation, strongest
// first. Same-layer pairs are skipped: Eq. 1 is defined for L1 ≠ L2.
func (a *Analyzer) AnalyzeAll(refs []MetricRef) ([]Dependency, error) {
	cfg := a.defaults()
	var out []Dependency
	for _, from := range refs {
		for _, to := range refs {
			if from.Layer == to.Layer {
				continue
			}
			d, err := a.Analyze(from, to)
			if err != nil {
				// Missing metrics or degenerate series are data
				// conditions, not failures of the scan.
				continue
			}
			if math.Abs(d.Correlation) >= cfg.MinCorrelation {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if ci, cj := math.Abs(out[i].Correlation), math.Abs(out[j].Correlation); ci != cj {
			return ci > cj
		}
		return out[i].String() < out[j].String()
	})
	return out, nil
}
