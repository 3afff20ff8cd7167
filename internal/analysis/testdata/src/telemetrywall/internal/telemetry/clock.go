// Package telemetry is flowervet testdata: a mirror of the real
// internal/telemetry package, which owns wall-time measurement and is
// therefore exempt from the wallclock analyzer (matched by the
// "/internal/telemetry" import-path suffix — the import path here is
// testdata-prefixed, so the exact-match arm cannot apply). Every call
// below would be a finding in any other package; none carries an allow
// pragma and none may be reported.
package telemetry

import "time"

// Now reads the wall clock, pragma-free: instrument timestamps are real
// time by design.
func Now() time.Time {
	return time.Now()
}

// SinceNanos measures a real elapsed duration.
func SinceNanos(start time.Time) int64 {
	return int64(time.Since(start))
}

// Ticker schedules on the wall clock — also the telemetry plane's
// prerogative (its intervals are real seconds).
func Ticker(d time.Duration) *time.Ticker {
	return time.NewTicker(d)
}
