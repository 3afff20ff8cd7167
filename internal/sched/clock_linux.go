package sched

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// fdClock sleeps in a read of a CLOCK_MONOTONIC timerfd parked on the
// runtime netpoller, so the kernel reports the expiry when it happens. A
// runtime timer cannot: an otherwise idle process sleeps in epoll_wait,
// whose timeout the runtime rounds to whole milliseconds (netpoll_epoll.go)
// — a 0–1 ms sawtooth, median ≈0.5 ms, on every tick.
type fdClock struct {
	f   *os.File
	fd  uintptr // f's descriptor: arm is one raw syscall on it, under sh.mu
	buf [8]byte // the expiry count a read returns
}

// newClock is the platform's best shard clock: a timerfd, or the runtime
// timer where the kernel or the netpoller will not take one.
func newClock() clock {
	const clockMonotonic = 1 // TFD_NONBLOCK, TFD_CLOEXEC are the O_ flags
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerClock()
	}
	f := os.NewFile(fd, "timerfd")
	if f.SetReadDeadline(time.Time{}) != nil { // not pollable: reads would spin on EAGAIN
		f.Close()
		return newTimerClock()
	}
	return &fdClock{f: f, fd: fd}
}

func (c *fdClock) arm(at time.Time) {
	d := time.Until(at) //flowervet:allow wallclock(arming the shard clock against a real-time wheel boundary)
	if d <= 0 {
		d = 1 // a zero it_value would disarm; 1 ns from now is "at once"
	}
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // struct itimerspec{it_interval, it_value}
	// Cannot fail: the descriptor is ours until close and the spec is valid.
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, c.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

func (c *fdClock) wait()  { _, _ = c.f.Read(c.buf[:]) } // an error is a spurious return, which the contract allows
func (c *fdClock) close() { c.f.Close() }
