// Package forecast implements workload prediction for proactive
// elasticity. The paper motivates Flower with workloads whose "uncertain
// velocity ... leads to changing resource consumption patterns" and with
// rule-based systems that "fail to adapt to unplanned or unforeseen
// changes in demand" (§1); the companion line of work behind reference [9]
// pairs the reactive adaptive controller with workload prediction. This
// package holds what that pairing runs in experiment E8: Holt's linear
// trend forecaster and a PredictiveSizer that converts a rate forecast
// into a resource allocation.
package forecast

import (
	"fmt"
	"math"
)

// Holt is double exponential smoothing (level + linear trend) — Holt's
// linear method. Good for ramps.
type Holt struct {
	// Alpha smooths the level; Beta smooths the trend. Both in (0, 1].
	Alpha, Beta float64

	level, trend float64
	n            int
}

// NewHolt validates and constructs the predictor.
func NewHolt(alpha, beta float64) (*Holt, error) {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("forecast: Holt alpha/beta (%v, %v) outside (0, 1]", alpha, beta)
	}
	return &Holt{Alpha: alpha, Beta: beta}, nil
}

// Observe feeds the next observation.
func (h *Holt) Observe(v float64) {
	switch h.n {
	case 0:
		h.level = v
	case 1:
		h.trend = v - h.level
		h.level = v
	default:
		prevLevel := h.level
		h.level = h.Alpha*v + (1-h.Alpha)*(h.level+h.trend)
		h.trend = h.Beta*(h.level-prevLevel) + (1-h.Beta)*h.trend
	}
	h.n++
}

// Ready reports whether enough data has been observed to forecast.
func (h *Holt) Ready() bool { return h.n >= 2 }

// Forecast extrapolates steps observations ahead (at least one): level
// plus extrapolated trend.
func (h *Holt) Forecast(steps int) float64 {
	if steps < 1 {
		steps = 1
	}
	return h.level + float64(steps)*h.trend
}

// PredictiveSizer converts a rate forecast into a resource allocation:
// enough units that the forecast load runs the layer at TargetUtil, plus
// the safety Headroom factor.
type PredictiveSizer struct {
	// UnitCapacity is the load one allocation unit serves per second
	// (1000 records/s for a shard; ~1000 for one VM of the reference
	// topology; 1 write/s for one WCU).
	UnitCapacity float64
	// TargetUtil is the desired utilisation in percent (e.g. 60).
	TargetUtil float64
	// Headroom multiplies the result (e.g. 1.1 for 10% safety margin).
	Headroom float64
	// Min and Max clamp the recommendation.
	Min, Max float64
}

// Size recommends an allocation for the forecast rate.
func (s PredictiveSizer) Size(forecastRate float64) float64 {
	if forecastRate < 0 {
		forecastRate = 0
	}
	headroom := s.Headroom
	if headroom <= 0 {
		headroom = 1
	}
	target := s.TargetUtil
	if target <= 0 {
		target = 60
	}
	units := forecastRate / (s.UnitCapacity * target / 100) * headroom
	units = math.Ceil(units)
	if units < s.Min {
		units = s.Min
	}
	if s.Max > 0 && units > s.Max {
		units = s.Max
	}
	return units
}
