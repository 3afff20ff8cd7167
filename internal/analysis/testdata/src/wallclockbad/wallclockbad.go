// Package wallclockbad is flowervet testdata: wall-clock reads in a
// package that is neither simtime, telemetry, cmd/* nor examples/*.
package wallclockbad

import "time"

// Stamp reads the wall clock from scheduler-driven code.
func Stamp() time.Time {
	return time.Now() // want "time.Now outside simtime"
}

// Nap blocks on the wall clock.
func Nap() {
	time.Sleep(time.Millisecond) // want "time.Sleep outside simtime"
}
