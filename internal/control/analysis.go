package control

import (
	"fmt"
	"math"
)

// StepMetrics summarises a closed-loop step response — the measures the
// companion paper [9] uses to compare controllers, and the ones
// experiment E4 (internal/exper) reports.
type StepMetrics struct {
	// SettleIndex is the first sample index (relative to the step) from
	// which the signal stays within the tolerance band around the
	// reference for the rest of the trace; -1 if it never settles.
	SettleIndex int
	// OvershootPct is the worst excursion beyond the reference after the
	// step, as a percentage of the reference (0 when the response never
	// crosses it).
	OvershootPct float64
	// SteadyStateError is the mean (signed) error over the settled tail,
	// or over the last quarter of the trace if the signal never settles.
	SteadyStateError float64
	// ISE is the integral (sum) of squared error over the post-step trace
	// — the classic aggregate tracking-quality measure.
	ISE float64
}

// AnalyzeStep computes StepMetrics for the post-step samples ys against
// the reference ref with the given settle tolerance.
func AnalyzeStep(ys []float64, ref, tolerance float64) (StepMetrics, error) {
	if len(ys) == 0 {
		return StepMetrics{}, fmt.Errorf("control: empty step response")
	}
	if tolerance <= 0 {
		return StepMetrics{}, fmt.Errorf("control: tolerance must be positive")
	}
	m := StepMetrics{SettleIndex: -1}

	for i := range ys {
		ok := true
		for _, v := range ys[i:] {
			if math.Abs(v-ref) > tolerance {
				ok = false
				break
			}
		}
		if ok {
			m.SettleIndex = i
			break
		}
	}

	// Overshoot: assume the step drives the signal from above the
	// reference downward or vice versa; measure the worst excursion on
	// the far side of ref relative to the first sample.
	sign := 1.0
	if ys[0] > ref {
		sign = -1.0 // approaching from above; overshoot is below ref
	}
	worst := 0.0
	for _, v := range ys {
		if exc := sign * (v - ref); exc > worst {
			worst = exc
		}
	}
	if ref != 0 {
		m.OvershootPct = worst / math.Abs(ref) * 100
	}

	tail := ys[len(ys)*3/4:]
	if m.SettleIndex >= 0 {
		tail = ys[m.SettleIndex:]
	}
	var sum float64
	for _, v := range tail {
		sum += v - ref
	}
	if len(tail) > 0 {
		m.SteadyStateError = sum / float64(len(tail))
	}

	for _, v := range ys {
		e := v - ref
		m.ISE += e * e
	}
	return m, nil
}

// StableGainBound returns the largest controller gain for which the
// discrete integral loop u(k+1) = u(k) + l·e(k) on a plant with (local)
// sensitivity |dy/du| = plantGain is asymptotically stable: the closed-loop
// pole is 1 − l·plantGain, which must lie in (−1, 1), so l < 2/plantGain.
// The paper's lmax should be chosen at or below this bound (the rigorous
// analysis lives in the companion paper [9]; this is the textbook
// first-order sufficient condition).
func StableGainBound(plantGain float64) (float64, error) {
	if plantGain <= 0 {
		return 0, fmt.Errorf("control: plant gain must be positive, got %v", plantGain)
	}
	return 2 / plantGain, nil
}

// VerifyGainBounds checks an AdaptiveGain configuration against the plant
// sensitivity: it returns an error when lmax exceeds the stability bound.
func VerifyGainBounds(c *AdaptiveGain, plantGain float64) error {
	bound, err := StableGainBound(plantGain)
	if err != nil {
		return err
	}
	if c.LMax >= bound {
		return fmt.Errorf("control: lmax %v >= stability bound %v for plant gain %v",
			c.LMax, bound, plantGain)
	}
	return nil
}

// UtilizationPlantGain estimates the local sensitivity |dy/du| of a
// utilisation plant y = load/(u·unitCapacity)·100 at the operating point
// (u, y): |dy/du| = y/u. It is the number to feed VerifyGainBounds when
// sizing the Eq. 7 bounds for a layer.
func UtilizationPlantGain(u, y float64) (float64, error) {
	if u <= 0 {
		return 0, fmt.Errorf("control: allocation must be positive, got %v", u)
	}
	if y < 0 {
		return 0, fmt.Errorf("control: utilisation must be non-negative, got %v", y)
	}
	return y / u, nil
}
