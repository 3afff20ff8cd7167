// Package workload implements the click-stream traffic generator that
// drives the simulated flow — the stand-in for the paper's "random
// multi-threaded click stream generator deployed on several EC2 instances
// to emulate the real website traffics" (§4).
//
// A Pattern maps elapsed simulation time to a target arrival rate
// (records/second); a Generator draws per-tick arrival counts from a
// Poisson distribution around that rate and synthesises click events with
// Zipf-distributed users and pages, feeding them to the ingestion layer.
package workload

import (
	"math"
	"time"
)

// Pattern describes a deterministic target arrival-rate profile.
type Pattern interface {
	// Rate returns the target arrival rate in records/second at elapsed
	// time since the start of the run. Implementations must be pure.
	Rate(elapsed time.Duration) float64
}

// Constant is a flat rate.
type Constant float64

// Rate returns the constant rate.
func (c Constant) Rate(time.Duration) float64 { return float64(c) }

// Step jumps from Before to After at At — the canonical controller test
// input (experiment E4 uses it to measure settling time).
type Step struct {
	Before, After float64
	At            time.Duration
}

// Rate implements Pattern.
func (s Step) Rate(elapsed time.Duration) float64 {
	if elapsed < s.At {
		return s.Before
	}
	return s.After
}

// Ramp rises linearly from From to To between Start and Start+Length and
// holds To afterwards.
type Ramp struct {
	From, To      float64
	Start, Length time.Duration
}

// Rate implements Pattern.
func (r Ramp) Rate(elapsed time.Duration) float64 {
	switch {
	case elapsed <= r.Start:
		return r.From
	case elapsed >= r.Start+r.Length:
		return r.To
	default:
		frac := float64(elapsed-r.Start) / float64(r.Length)
		return r.From + (r.To-r.From)*frac
	}
}

// Sine oscillates around Base with the given Amplitude and Period —
// a smooth stand-in for periodic workload dynamics.
type Sine struct {
	Base, Amplitude float64
	Period          time.Duration
}

// Rate implements Pattern. The rate never goes below zero.
func (s Sine) Rate(elapsed time.Duration) float64 {
	if s.Period <= 0 {
		return s.Base
	}
	v := s.Base + s.Amplitude*math.Sin(2*math.Pi*float64(elapsed)/float64(s.Period))
	if v < 0 {
		v = 0
	}
	return v
}

// Diurnal models a day-night website traffic cycle: a low overnight floor
// rising to a peak in the afternoon, repeating every Day. This is the
// workload shape behind Fig. 2's 550-minute trace.
type Diurnal struct {
	Floor, Peak float64
	Day         time.Duration
}

// Rate implements Pattern using a raised-cosine day shape with its minimum
// at elapsed=0.
func (d Diurnal) Rate(elapsed time.Duration) float64 {
	if d.Day <= 0 {
		return d.Floor
	}
	phase := math.Mod(float64(elapsed)/float64(d.Day), 1)
	shape := (1 - math.Cos(2*math.Pi*phase)) / 2 // 0 at midnight, 1 at midday
	return d.Floor + (d.Peak-d.Floor)*shape
}

// Spike superimposes a flash crowd on a Base pattern: the rate is
// multiplied by Factor during [At, At+Length) — the "unplanned or
// unforeseen changes in demand" that rule-based autoscaling handles poorly
// (§1, experiment E6).
type Spike struct {
	Base       Pattern
	At, Length time.Duration
	Factor     float64
}

// Rate implements Pattern.
func (s Spike) Rate(elapsed time.Duration) float64 {
	r := s.Base.Rate(elapsed)
	if elapsed >= s.At && elapsed < s.At+s.Length {
		return r * s.Factor
	}
	return r
}
