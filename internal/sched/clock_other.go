//go:build !linux

package sched

// newClock is the platform's best shard clock: the runtime timer.
func newClock() clock { return newTimerClock() }
