package sched

import "time"

// clock is a shard's one sleep. arm sets the instant the next wait returns
// at (a past instant: at once), replacing whatever was armed; wait blocks
// until then, and indefinitely while nothing is armed. A wait may return
// spuriously — the shard loop re-reads the time and its queues — but never
// fails to return. arm is called under sh.mu: by the shard loop before it
// sleeps, and by an insert, an enqueue or Close while it sleeps; wait and
// close only by the shard loop.
type clock interface {
	arm(at time.Time)
	wait()
	close()
}

// timerClock sleeps on a runtime timer. Portable, but coarse on Linux:
// an idle Go process sleeps in epoll_wait with a whole-millisecond
// timeout, so the timer fires 0–1 ms late (see clock_linux.go).
type timerClock struct{ t *time.Timer }

func newTimerClock() clock {
	t := time.NewTimer(time.Hour) //flowervet:allow wallclock(the shard clock is the wall-time sleep of the scheduler)
	t.Stop()
	return timerClock{t}
}

func (c timerClock) arm(at time.Time) {
	c.t.Reset(time.Until(at)) //flowervet:allow wallclock(arming the shard clock against a real-time wheel boundary)
}
func (c timerClock) wait()  { <-c.t.C }
func (c timerClock) close() { c.t.Stop() }
