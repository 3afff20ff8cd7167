// Package sched is the control plane's unified execution plane: a sharded
// tick scheduler that runs every kind of recurring or queued work — flow
// pacer ticks, experiment trial chunks — on one bounded, observable pool.
//
// Before this package, execution capacity was fragmented: every paced flow
// owned a goroutine plus a timer, and the Scenario Lab kept a completely
// separate bounded worker pool, so the process's concurrency was neither
// shared, bounded, nor visible anywhere. The scheduler consolidates both
// onto N shards. Each shard owns one worker and
//
//   - a hashed timer wheel — periodic jobs hash to a shard by id and wait
//     in coarse-grained slots, so arming, firing and re-arming are O(1)
//     regardless of how many timers are pending;
//   - a per-shard run queue of *batches*, segregated by Class and drained
//     under a weighted-fairness policy (FlowWeight flow-class jobs per
//     batch-class job, work-conserving in both directions), so a big
//     experiment grid cannot starve live flow pacing and pacers cannot
//     starve the lab;
//   - per-shard statistics: queue depths, armed timers, executed jobs,
//     late and skipped ticks, batch sizes, and a run-latency histogram.
//
// Execution is batched: one wheel advance drains every due job into a
// per-class run batch handed to the shard's worker in a single lock
// acquisition, so the fire path costs O(advances) lock work instead of
// O(fired jobs). The worker executes a whole batch back to back,
// accumulating stats on its stack and flushing them — shard counters,
// latency buckets, process telemetry, and the batch's periodic re-arms —
// once per batch. Batches are capped at maxBatch jobs so a thundering herd
// splits into units, and a queued trial chunk waits behind at most one of
// them instead of the whole herd.
//
// Execution is shard-affine: a periodic job is armed, queued, executed and
// re-armed on exactly the shard its id hashes to, for its whole life. No
// worker ever takes another shard's lock, so two shard locks are never held
// at once and per-shard counters are exact — work never migrates. Load
// balance comes from the id hash and the hash-spread first fire; chunked
// jobs (which have no timer) are placed on the least-loaded shard instead.
//
// The total goroutine count is O(shards): one timer loop and one worker
// per shard, independent of how many flows are paced or trials
// queued — the property that lets one daemon pace thousands of flows.
//
// Each shard's timer loop sleeps on one deadline-driven clock. A job is
// never released before its wheel-slot boundary, and every shard's
// boundaries lie on one grid (epoch + k·WheelTick), so shards due in the
// same quantum wake out of one epoll_wait return. On Linux the clock is a
// timerfd read through the netpoller, so the loop learns of a boundary as
// it passes; elsewhere it is a runtime timer, up to 1 ms late. The loop
// sleeps through empty slots: an empty wheel costs nothing at rest, one
// holding only a far deadline wakes once per revolution. Known limit: the
// runtime polls the netpoller only from a P whose run queue is empty
// (sysmon backstops at 10 ms), so with every P saturated an expiry can be
// noticed later than a runtime timer would be; bounded catch-up covers it.
//
// Periodic jobs fire on a fixed-rate schedule with a bounded catch-up
// policy: a job that falls behind wall time (slow callback, saturated
// shards) is delivered the elapsed intervals in one batched call — capped
// at MaxCatchUp, with the excess counted in SkippedTicks and permanently
// dropped — so an overloaded scheduler degrades into a slower tick rate
// instead of an unbounded backlog.
package sched

import (
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Class labels the kind of work a job does. Run queues are segregated by
// class so the drain policy can keep latency-sensitive work ahead of
// throughput work without starving either.
type Class int

const (
	// ClassFlow is latency-sensitive periodic work: flow pacer ticks.
	ClassFlow Class = iota
	// ClassBatch is throughput work: experiment trial chunks.
	ClassBatch

	numClasses = 2
)

// String names the class for stats and logs.
func (c Class) String() string {
	switch c {
	case ClassFlow:
		return "flow"
	case ClassBatch:
		return "batch"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// The scheduler's fixed policy. Each is the one value every caller ran
// with, so none is configurable.
const (
	// WheelTick is the timer-wheel granularity: periodic intervals round
	// up to the next multiple of it.
	WheelTick = 2 * time.Millisecond
	// wheelSlots is the number of wheel slots per shard.
	wheelSlots = 512
	// MaxCatchUp bounds how many owed intervals a late periodic job is
	// delivered in one call; intervals beyond it are dropped and counted.
	MaxCatchUp = 4
	// FlowWeight is how many flow-class jobs a shard drains per
	// batch-class job when both queues are non-empty.
	FlowWeight = 4
	// maxBatch caps how many fired jobs one run batch may carry: beyond
	// it the timer loop splits the herd into several batches, so queued
	// batch-class work waits behind at most one of them, and fairness
	// credit and stats flushes stay fine-grained.
	maxBatch = 256
	// maxShards caps the shard count even on very wide machines; beyond
	// this the per-shard structures stop paying for themselves.
	maxShards = 64
)

// Config sizes a Scheduler.
type Config struct {
	// Shards is the number of shards — a timer wheel, class run queues
	// and one worker each (default GOMAXPROCS, capped at 64). It is the
	// process's whole execution capacity: the maximum number of advances
	// and trial chunks running at any instant.
	Shards int
}

// wheel is the timer-wheel geometry of every shard: slots of tick each.
// New uses defaultWheel; tests pass a smaller or faster one to
// newScheduler.
type wheel struct {
	tick  time.Duration
	slots int
}

var defaultWheel = wheel{tick: WheelTick, slots: wheelSlots}

// ErrClosed is returned by Periodic and Submit after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// TickFunc runs one periodic firing. n >= 1 is the number of intervals
// being delivered: 1 when the job is on schedule, more when it fell behind
// and the scheduler is catching it up (bounded by MaxCatchUp).
// Returning an error stops the job permanently; the registration's onStop
// callback is then invoked exactly once with that error.
type TickFunc func(n int) error

// ChunkFunc runs one chunk of a queued job. Returning true finishes the
// job; returning false re-queues it (on the least-loaded shard), which is
// what interleaves long jobs fairly.
type ChunkFunc func() (done bool)

// Scheduler is a sharded tick scheduler; construct with New.
type Scheduler struct {
	wheel     wheel
	epoch     time.Time // origin of the one grid (epoch + k·wheel.tick) every shard's slot boundaries lie on
	shards    []*shard
	seed      maphash.Seed
	rr        atomic.Uint64 // rotates the least-loaded scan's start shard
	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New starts a scheduler: a timer loop and a worker per shard, all idle
// until work arrives. Close releases them.
func New(cfg Config) *Scheduler { return newScheduler(cfg, defaultWheel, newClock) }

// newScheduler is New over a chosen wheel geometry and shard clock (tests
// run small fast wheels and both kinds of clock).
func newScheduler(cfg Config, w wheel, newClock func() clock) *Scheduler {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = min(n, maxShards)
	s := &Scheduler{wheel: w, seed: maphash.MakeSeed()}
	s.epoch = time.Now() //flowervet:allow wallclock(the timing wheels track real time; sched is the wall-time executor)
	for i := 0; i < n; i++ {
		sh := newShard(s, i)
		sh.clk = newClock()
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		s.wg.Add(2)
		go sh.timerLoop()
		go sh.workerLoop()
	}
	registerScheduler(s)
	return s
}

// Shards returns the shard count: the maximum number of jobs executing at
// any instant, the one capacity knob of the whole process.
func (s *Scheduler) Shards() int { return len(s.shards) }

// Periodic registers tick to run every interval, starting one interval
// from now. The job is pinned to the shard its id hashes to. onStop, when
// non-nil, is called exactly once if the job stops itself by returning an
// error — never on Ticket.Stop. It runs on a worker goroutine after the
// failing tick has fully returned, so it may take the same locks the
// caller of Stop holds.
func (s *Scheduler) Periodic(id string, class Class, interval time.Duration, tick TickFunc, onStop func(error)) (*Ticket, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("sched: interval %v must be positive", interval)
	}
	if tick == nil {
		return nil, errors.New("sched: nil tick function")
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	j := &job{id: id, class: class, periodic: true, interval: interval, tick: tick, onStop: onStop}
	// Spread the first fire across the interval by id hash: 100k flows
	// registered in one burst then land across the whole wheel instead of
	// detonating out of a single slot every interval forever. Subsequent
	// fires run at the fixed rate from wherever the first one landed.
	spread := time.Duration(maphash.String(s.seed, id) % uint64(interval))
	j.nextAt = time.Now().Add(interval - spread/2) //flowervet:allow wallclock(the scheduler is the wall-time executor that paces virtual ticks against real time)
	if !s.shardFor(id).insertTimer(j) {
		// The shard closed between the closed check above and the arm: a
		// nil-error return here would hand the caller a ticket for a job
		// that will never fire.
		return nil, ErrClosed
	}
	return &Ticket{j: j}, nil
}

// Submit queues run for execution. The job goes to the least-loaded shard
// and, while it keeps returning false, is re-queued there after every
// chunk — long jobs therefore migrate toward idle shards on their own.
// onStop, when non-nil, is called exactly once if the scheduler abandons
// the job before run ever returned true (a Close landing between chunks),
// with ErrClosed — never after normal completion or Ticket.Stop — so the
// submitter can settle whatever the job was driving.
func (s *Scheduler) Submit(id string, class Class, run ChunkFunc, onStop func(error)) (*Ticket, error) {
	if run == nil {
		return nil, errors.New("sched: nil chunk function")
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	j := &job{id: id, class: class, run: run, onStop: onStop}
	if !s.enqueueBatch(j) {
		return nil, ErrClosed
	}
	return &Ticket{j: j}, nil
}

// shardFor hashes a job id onto a shard.
func (s *Scheduler) shardFor(id string) *shard {
	return s.shards[maphash.String(s.seed, id)%uint64(len(s.shards))]
}

// enqueueBatch places a queued job on the least-loaded shard (queue length
// plus chunks executing right now), scanning from a rotating start so ties
// spread instead of piling onto shard 0.
func (s *Scheduler) enqueueBatch(j *job) bool {
	start := int(s.rr.Add(1)) % len(s.shards)
	best, bestLoad := -1, int(^uint(0)>>1)
	for i := range s.shards {
		sh := s.shards[(start+i)%len(s.shards)]
		sh.mu.Lock()
		load := sh.queued[j.class] + sh.execBatch
		closed := sh.closed
		sh.mu.Unlock()
		if closed {
			continue
		}
		if load < bestLoad {
			best, bestLoad = (start+i)%len(s.shards), load
			if load == 0 {
				break
			}
		}
	}
	if best < 0 {
		return false
	}
	return s.shards[best].enqueue(j)
}

// Close stops the scheduler: no new work is accepted, every worker
// finishes the job it is executing and exits, and queued-but-unstarted
// work is abandoned — each abandoned chunked job's onStop is invoked with
// ErrClosed so its submitter can settle. Drain producers first (stop
// pacers, settle experiments) — Close is the last step of a shutdown, and
// it blocks until every scheduler goroutine has exited. Idempotent.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.closed = true
			sh.cond.Signal()
			sh.clk.arm(time.Time{}) // long past: wakes a loop asleep on any deadline
			sh.mu.Unlock()
		}
		s.wg.Wait()
		// All workers have exited; whatever is still queued will never
		// run. Tell chunked jobs so (periodic jobs are lifecycle-managed
		// through Ticket.Stop and are simply discarded).
		for _, sh := range s.shards {
			var abandoned []*job
			sh.mu.Lock()
			for c := 0; c < numClasses; c++ {
				for {
					b := sh.queues[c].pop()
					if b == nil {
						break
					}
					for _, j := range b.jobs {
						if !j.periodic {
							abandoned = append(abandoned, j)
						}
					}
				}
			}
			sh.mu.Unlock()
			for _, j := range abandoned {
				j.mu.Lock()
				already := j.stopped
				j.stopped = true
				j.mu.Unlock()
				if !already && j.onStop != nil {
					j.onStop(ErrClosed)
				}
			}
		}
		unregisterScheduler(s)
	})
}

// Ticket is a handle on one registered job.
type Ticket struct {
	j *job
}

// ID returns the id the job was registered under.
func (t *Ticket) ID() string { return t.j.id }

// Stop permanently deactivates the job and waits for any in-flight
// execution to return: after Stop, the job's function will never be
// running. Safe to call repeatedly and concurrently. Must not be called
// from inside the job's own function (it would wait for itself).
func (t *Ticket) Stop() {
	j := t.j
	j.mu.Lock()
	j.stopped = true
	if !j.running {
		j.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	j.waiters = append(j.waiters, ch)
	j.mu.Unlock()
	<-ch
}

// Stopped reports whether the job has been stopped (by Stop, by finishing,
// or by a tick error).
func (t *Ticket) Stopped() bool {
	t.j.mu.Lock()
	defer t.j.mu.Unlock()
	return t.j.stopped
}
