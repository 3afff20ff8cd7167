package metricstore

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/timeseries"
)

// Comparison is an alarm threshold comparison operator.
type Comparison int

// Supported comparisons, mirroring CloudWatch's operators.
const (
	GreaterThan Comparison = iota
	GreaterOrEqual
	LessThan
	LessOrEqual
)

// String returns the operator's symbolic form.
func (c Comparison) String() string {
	switch c {
	case GreaterThan:
		return ">"
	case GreaterOrEqual:
		return ">="
	case LessThan:
		return "<"
	case LessOrEqual:
		return "<="
	default:
		return "?"
	}
}

// breaches reports whether v violates the threshold under c.
func (c Comparison) breaches(v, threshold float64) bool {
	switch c {
	case GreaterThan:
		return v > threshold
	case GreaterOrEqual:
		return v >= threshold
	case LessThan:
		return v < threshold
	case LessOrEqual:
		return v <= threshold
	default:
		return false
	}
}

// AlarmState is the evaluation outcome of an alarm.
type AlarmState int

// Alarm states, mirroring CloudWatch's.
const (
	StateInsufficient AlarmState = iota
	StateOK
	StateAlarm
)

// String names the state.
func (s AlarmState) String() string {
	switch s {
	case StateOK:
		return "OK"
	case StateAlarm:
		return "ALARM"
	default:
		return "INSUFFICIENT_DATA"
	}
}

// Alarm is a CloudWatch-style threshold alarm: it enters ALARM when the
// chosen statistic of the chosen metric breaches the threshold for
// EvalPeriods consecutive periods. Rule-based autoscaling (the baseline the
// paper's introduction critiques) is built on these.
type Alarm struct {
	Name        string
	Namespace   string
	Metric      string
	Dimensions  map[string]string
	Period      time.Duration
	Stat        timeseries.Agg
	Threshold   float64
	Compare     Comparison
	EvalPeriods int

	state       AlarmState
	transitions int
}

// PutAlarm registers (or replaces) an alarm by name.
func (s *Store) PutAlarm(a *Alarm) error {
	if a.Name == "" {
		return fmt.Errorf("metricstore: alarm name is required")
	}
	if a.Period <= 0 {
		return fmt.Errorf("metricstore: alarm %q period must be positive", a.Name)
	}
	if a.EvalPeriods <= 0 {
		a.EvalPeriods = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alarms[a.Name] = a
	return nil
}

// Alarm returns the named alarm, if registered.
func (s *Store) Alarm(name string) (*Alarm, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.alarms[name]
	return a, ok
}

// EvaluateAlarms re-evaluates every alarm as of now and returns the names
// of alarms currently in ALARM state, sorted by registration key order.
func (s *Store) EvaluateAlarms(now time.Time) []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.alarms))
	for n := range s.alarms {
		names = append(names, n)
	}
	s.mu.RUnlock()
	slices.Sort(names)

	var firing []string
	for _, n := range names {
		a, _ := s.Alarm(n)
		st := s.EvaluateAlarm(a, now)
		if st == StateAlarm {
			firing = append(firing, n)
		}
	}
	return firing
}

// EvaluateAlarm computes the alarm's state as of now and records
// state-transition counts on the alarm.
func (s *Store) EvaluateAlarm(a *Alarm, now time.Time) AlarmState {
	newState := StateInsufficient
	if h, ok := s.Lookup(a.Namespace, a.Metric, a.Dimensions); ok {
		window := time.Duration(a.EvalPeriods) * a.Period
		stats := h.Window(WindowQuery{From: now.Add(-window), To: now.Add(time.Nanosecond), Period: a.Period, Stat: a.Stat})
		if stats.Len() >= a.EvalPeriods {
			newState = StateOK
			breachedAll := true
			for _, v := range stats.TailN(a.EvalPeriods).Values() {
				if math.IsNaN(v) || !a.Compare.breaches(v, a.Threshold) {
					breachedAll = false
					break
				}
			}
			if breachedAll {
				newState = StateAlarm
			}
		}
	}
	if newState != a.state {
		a.transitions++
		a.state = newState
	}
	return newState
}

// State reports the alarm's last evaluated state.
func (a *Alarm) State() AlarmState { return a.state }

// Transitions reports how many state changes the alarm has undergone.
func (a *Alarm) Transitions() int { return a.transitions }
