package sched

import (
	"sync"
	"time"
)

// job is one schedulable unit: a periodic timer job (pacer tick) or a
// queued chunked job (experiment trial). Its lifecycle invariant is that a
// periodic job is in exactly one place at a time — armed in the wheel,
// waiting in a run queue, or executing — so one job can never fire twice
// concurrently; catch-up after delays is handled by delivering batched
// intervals, not parallel runs.
type job struct {
	id       string
	class    Class
	periodic bool
	interval time.Duration
	tick     TickFunc
	run      ChunkFunc
	onStop   func(error)

	mu      sync.Mutex
	stopped bool
	running bool
	waiters []chan struct{} // Stop callers awaiting the in-flight run
	// nextAt is the periodic job's scheduled fire time. It is written by
	// the shard loop that just ran the job (under j.mu) and read by the
	// wheel insert that re-arms it — a strict hand-off, never concurrent.
	nextAt time.Time
	// armedAt is the wheel-slot boundary the pending fire was armed for,
	// which fire lag is measured from; handed off exactly as nextAt is.
	armedAt time.Time
}

// batch is the unit the run queues hold and shard loops execute: one or
// more same-class jobs drained from a single wheel advance (or a single
// submitted chunk). Executing per batch instead of per job amortises the
// shard lock — one pop, one stats flush, one re-arm pass per batch — from
// O(fired jobs) down to O(advances). Batches are recycled through a
// per-shard freelist so the steady-state drain loop never allocates.
type batch struct {
	class Class
	jobs  []*job
}

// wheelEntry is one armed timer: rounds counts full wheel revolutions
// still to wait before the entry is due.
type wheelEntry struct {
	j      *job
	rounds int
}

// fifo is a slice-backed queue of run batches with an amortised-O(1) pop.
type fifo struct {
	head  int
	items []*batch
}

func (q *fifo) len() int { return len(q.items) - q.head }

func (q *fifo) push(b *batch) { q.items = append(q.items, b) }

func (q *fifo) pop() *batch {
	if q.head == len(q.items) {
		return nil
	}
	b := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	// Compact once the dead prefix dominates, so the backing array does
	// not grow without bound under sustained traffic.
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return b
}

// batchStats is the per-batch accumulator a shard loop fills while
// executing a batch's jobs, flushed into the shard stats and process
// telemetry in one lock acquisition and a handful of atomic adds — instead
// of a shard lock and two atomics per execution. A batch is single-class
// by construction, so one accumulator covers it.
type batchStats struct {
	executed     uint64
	lateRuns     uint64
	skippedTicks uint64
	run          latencyAcc // execution durations
	fireLag      latencyAcc // periodic jobs: run start − armedAt
}

// latencyAcc is a local distribution over latencyBounds (see
// telemetry.Histogram.Merge).
type latencyAcc struct {
	counts [numLatencyBuckets]uint64
	sum    time.Duration
	max    time.Duration
}

func (a *latencyAcc) observe(d time.Duration) {
	a.counts[latencyBucket(d)]++
	a.sum += d
	if d > a.max {
		a.max = d
	}
}

// batchRun is a shard loop's reusable scratch for one batch execution: the
// stats accumulator plus the periodic re-arms and chunk re-queues the
// batch produced. Reused across iterations so the drain loop stays
// allocation-free at steady state.
type batchRun struct {
	stats   batchStats
	rearm   []*job
	requeue []*job
}

func (br *batchRun) reset() {
	br.stats = batchStats{}
	for i := range br.rearm {
		br.rearm[i] = nil
	}
	br.rearm = br.rearm[:0]
	for i := range br.requeue {
		br.requeue[i] = nil
	}
	br.requeue = br.requeue[:0]
}

// shard is one slice of the execution plane: a hashed timer wheel, class
// run queues of batches, the one loop that advances the one and drains the
// other, and the stats it accumulates.
type shard struct {
	idx int
	sc  *Scheduler

	mu         sync.Mutex
	queues     [numClasses]fifo
	queued     [numClasses]int // jobs queued per class (batches hold many)
	flowCredit int             // weighted-fairness credit left for the flow class, in jobs
	execBatch  int             // batch-class jobs the loop is executing right now (load metric)
	free       []*batch        // recycled batch headers + job slices
	closed     bool

	// Timer wheel, also guarded by mu. cur/curAt track the cursor slot and
	// the wall time of its boundary, always on the scheduler's grid; timers
	// counts armed entries. asleep is set while the loop sleeps on clk with
	// nothing queued, and wakeAt is then the instant clk is armed to wake
	// it at (zero: nothing armed, the loop sleeps until an insert or an
	// enqueue). While the loop is awake neither is touched: it re-arms
	// before every sleep.
	slots  [][]wheelEntry
	cur    int
	curAt  time.Time
	timers int
	clk    clock
	asleep bool
	wakeAt time.Time

	// Stats, guarded by mu.
	executed     [numClasses]uint64
	lateRuns     uint64
	skippedTicks uint64
	batches      uint64 // batches executed by this shard's loop
	batchJobs    uint64 // jobs across those batches
	maxBatch     int    // largest batch executed here
	latCounts    [numLatencyBuckets]uint64
	latSum       time.Duration
	latMax       time.Duration
}

func newShard(sc *Scheduler, idx int) *shard {
	return &shard{
		idx:        idx,
		sc:         sc,
		flowCredit: FlowWeight,
		slots:      make([][]wheelEntry, sc.wheel.slots),
		curAt:      sc.epoch,
	}
}

// maxFreeBatches bounds the per-shard batch freelist; maxFreeBatchCap
// bounds the job-slice capacity a recycled batch may retain, so one
// 100k-flow herd does not pin megabytes per shard forever.
const (
	maxFreeBatches   = 8
	maxFreeBatchCap  = 16384
	initialBatchJobs = 64
)

// getBatchLocked takes a recycled batch (or makes one) for class c.
func (sh *shard) getBatchLocked(c Class) *batch {
	if n := len(sh.free); n > 0 {
		b := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		b.class = c
		return b
	}
	return &batch{class: c, jobs: make([]*job, 0, initialBatchJobs)}
}

// putBatchLocked recycles a drained batch.
func (sh *shard) putBatchLocked(b *batch) {
	if len(sh.free) >= maxFreeBatches || cap(b.jobs) > maxFreeBatchCap {
		return
	}
	for i := range b.jobs {
		b.jobs[i] = nil
	}
	b.jobs = b.jobs[:0]
	sh.free = append(sh.free, b)
}

// pushLocked queues a batch and maintains the job-depth accounting.
func (sh *shard) pushLocked(b *batch) {
	sh.queues[b.class].push(b)
	sh.queued[b.class] += len(b.jobs)
}

// insertTimerLocked arms a periodic job at j.nextAt; sh.mu must be held.
// Due and past times land in the next slot: the wheel never fires early,
// and a behind-schedule job fires on the next advance. The clock is
// re-armed only when the loop is asleep and the cursor must reach the
// entry's slot sooner than the loop is due to wake: an awake loop arms it
// before it sleeps.
func (sh *shard) insertTimerLocked(j *job) {
	tick, n := sh.sc.wheel.tick, len(sh.slots)
	if sh.timers == 0 {
		// The wheel was idle, so the cursor stopped tracking wall time;
		// re-anchor it at the grid boundary behind now before placing the
		// first entry.
		now := time.Now() //flowervet:allow wallclock(re-anchoring the wheel cursor is real-time pacing)
		sh.curAt = now.Add(-(now.Sub(sh.sc.epoch) % tick))
	}
	offset := int((j.nextAt.Sub(sh.curAt) + tick - 1) / tick)
	if offset < 1 {
		offset = 1
	}
	slot := (sh.cur + offset) % n
	sh.slots[slot] = append(sh.slots[slot], wheelEntry{j: j, rounds: (offset - 1) / n})
	sh.timers++
	j.armedAt = sh.curAt.Add(time.Duration(offset) * tick)
	if !sh.asleep {
		return
	}
	// An entry with rounds to wait still needs the cursor at its slot once
	// per revolution, to count them down.
	wake := sh.curAt.Add(time.Duration((offset-1)%n+1) * tick)
	if sh.wakeAt.IsZero() || wake.Before(sh.wakeAt) {
		sh.wakeAt = wake
		sh.clk.arm(wake)
	}
}

// insertTimer arms one periodic job, reporting false on a closed shard.
func (sh *shard) insertTimer(j *job) bool {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return false
	}
	sh.insertTimerLocked(j)
	sh.mu.Unlock()
	return true
}

// loop is the shard's one goroutine. Each turn it advances the wheel to
// now and runs one queued batch, chosen by the weighted-fairness drain;
// only with both run queues empty does it arm the clock for the boundary
// of the next occupied slot — or, the wheel empty, leave it for an insert
// or enqueue to arm — and sleep on it. A boundary already past fires on
// the next turn. The package doc states what that sleep guarantees. The
// loop only ever takes its own shard's lock.
func (sh *shard) loop() {
	defer sh.sc.wg.Done()
	defer sh.clk.close()
	var br batchRun
	sh.mu.Lock()
	for !sh.closed {
		sh.advanceLocked()
		b := sh.popLocked()
		if b == nil {
			sh.wakeAt = time.Time{}
			if sh.timers > 0 {
				ahead := 1
				for len(sh.slots[(sh.cur+ahead)%len(sh.slots)]) == 0 {
					ahead++
				}
				sh.wakeAt = sh.curAt.Add(time.Duration(ahead) * sh.sc.wheel.tick)
				sh.clk.arm(sh.wakeAt)
			}
			sh.asleep = true
			sh.mu.Unlock()
			sh.clk.wait()
			telTimerWakeups.Inc()
			sh.mu.Lock()
			sh.asleep = false
			continue
		}
		if b.class == ClassBatch {
			sh.execBatch += len(b.jobs)
		}
		sh.mu.Unlock()

		sh.runBatch(b, &br)

		class := b.class
		size := len(b.jobs)
		sh.mu.Lock()
		if class == ClassBatch {
			sh.execBatch -= size
		}
		sh.flushStatsLocked(class, &br.stats, size)
		if !sh.closed {
			// The whole batch re-arms into this shard's wheel under the lock
			// the flush already holds. On a closed shard the re-arms are
			// dropped: periodic jobs are lifecycle-managed via Ticket.Stop.
			for _, j := range br.rearm {
				sh.insertTimerLocked(j)
			}
		}
		sh.putBatchLocked(b)
		sh.mu.Unlock()

		sh.flushTelemetry(class, &br.stats, size)
		for _, j := range br.requeue {
			// Chunked jobs re-queue through the least-loaded scan so long
			// jobs drift toward idle shards instead of pinning where they
			// started. A false return means the scheduler is closing: the
			// job is abandoned, and its onStop (if any) is told so the
			// submitter can settle whatever the job was driving instead of
			// waiting forever.
			if !sh.sc.enqueueBatch(j) {
				j.mu.Lock()
				already := j.stopped
				j.stopped = true
				j.mu.Unlock()
				if !already && j.onStop != nil {
					j.onStop(ErrClosed)
				}
			}
		}
		sh.mu.Lock()
	}
	sh.mu.Unlock()
}

// advanceLocked moves the wheel cursor to the last slot boundary at or
// before now, draining each due entry into a per-class run batch pushed
// onto the run queues — the fire path costs O(advances) lock work, not
// O(fired jobs); sh.mu must be held.
func (sh *shard) advanceLocked() {
	if sh.timers == 0 {
		return
	}
	tick := sh.sc.wheel.tick
	now := time.Now() //flowervet:allow wallclock(wheel advancement measures real elapsed time)
	var fired [numClasses]*batch
	for sh.timers > 0 && !sh.curAt.Add(tick).After(now) {
		sh.cur = (sh.cur + 1) % len(sh.slots)
		sh.curAt = sh.curAt.Add(tick)
		slot := sh.slots[sh.cur]
		keep := slot[:0]
		for _, e := range slot {
			if e.rounds > 0 {
				e.rounds--
				keep = append(keep, e)
				continue
			}
			sh.timers--
			c := e.j.class
			if fired[c] == nil {
				fired[c] = sh.getBatchLocked(c)
			}
			fired[c].jobs = append(fired[c].jobs, e.j)
			if len(fired[c].jobs) >= maxBatch {
				// Cap batch granularity: queued batch-class work can then
				// run between the parts of a huge herd instead of waiting
				// behind one mega-batch.
				sh.pushLocked(fired[c])
				fired[c] = nil
			}
		}
		for i := len(keep); i < len(slot); i++ {
			slot[i] = wheelEntry{}
		}
		sh.slots[sh.cur] = keep
	}
	for _, b := range fired {
		if b != nil {
			sh.pushLocked(b)
		}
	}
}

// enqueue wraps a submitted job into a single-job batch on the shard's run
// queue, waking the shard's loop if it is asleep.
func (sh *shard) enqueue(j *job) bool {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return false
	}
	b := sh.getBatchLocked(j.class)
	b.jobs = append(b.jobs, j)
	sh.pushLocked(b)
	if sh.asleep {
		// The loop pops before it sleeps again, so one wake is enough.
		sh.asleep = false
		sh.clk.arm(time.Time{})
	}
	sh.mu.Unlock()
	return true
}

// popLocked applies the weighted-fairness drain: with both queues
// non-empty, FlowWeight flow-class jobs run per batch-class job (credit is
// spent per job, so a many-job flow batch consumes that much credit); with
// one queue empty, the other drains freely (work-conserving).
func (sh *shard) popLocked() *batch {
	nf, nb := sh.queued[ClassFlow], sh.queued[ClassBatch]
	var c Class
	switch {
	case nf == 0 && nb == 0:
		return nil
	case nb == 0:
		c = ClassFlow
	case nf == 0:
		c = ClassBatch
	case sh.flowCredit > 0:
		c = ClassFlow
	default:
		c = ClassBatch
		sh.flowCredit = FlowWeight
	}
	b := sh.queues[c].pop()
	if b == nil {
		return nil
	}
	if c == ClassFlow && nb > 0 {
		sh.flowCredit -= len(b.jobs)
	}
	sh.queued[c] -= len(b.jobs)
	return b
}

// runBatch executes every runnable job of one dequeued batch, accumulating
// stats, periodic re-arms and chunk re-queues into br for the caller to
// flush. The clock is read once per job boundary (the end of one run is
// the start of the next), halving hot-loop clock reads.
func (sh *shard) runBatch(b *batch, br *batchRun) {
	br.reset()
	prev := time.Now() //flowervet:allow wallclock(per-class tick-duration histograms measure real execution cost)
	for _, j := range b.jobs {
		j.mu.Lock()
		if j.stopped {
			j.mu.Unlock()
			continue
		}
		j.running = true
		n := 0
		if j.periodic {
			br.stats.fireLag.observe(prev.Sub(j.armedAt))
			// Fixed-rate catch-up, bounded: deliver every interval owed since
			// nextAt in this one call, but never more than MaxCatchUp — the
			// excess is dropped (and counted), so overload degrades the tick
			// rate instead of growing a backlog.
			owed := 1
			if behind := prev.Sub(j.nextAt); behind > 0 {
				owed += int(behind / j.interval)
			}
			n = owed
			if n > MaxCatchUp {
				br.stats.skippedTicks += uint64(n - MaxCatchUp)
				n = MaxCatchUp
			}
			if owed > 1 {
				br.stats.lateRuns++
			}
			j.nextAt = j.nextAt.Add(time.Duration(owed) * j.interval)
			j.mu.Unlock()
		} else {
			j.mu.Unlock()
		}

		var err error
		done := false
		if j.periodic {
			err = j.tick(n)
		} else {
			done = j.run()
		}
		now := time.Now() //flowervet:allow wallclock(per-class tick-duration histograms measure real execution cost)
		br.stats.executed++
		br.stats.run.observe(now.Sub(prev))
		prev = now

		j.mu.Lock()
		j.running = false
		ws := j.waiters
		j.waiters = nil
		errExit := false
		if !j.stopped && (err != nil || (!j.periodic && done)) {
			j.stopped = true
			errExit = err != nil
		}
		alive := !j.stopped
		j.mu.Unlock()
		for _, ch := range ws {
			close(ch)
		}
		if errExit && j.onStop != nil {
			// After the waiters are released: a Stop racing the failing tick
			// has already returned, so onStop can take the locks Stop's caller
			// held without deadlocking.
			j.onStop(err)
		}
		if !alive {
			continue
		}
		if j.periodic {
			br.rearm = append(br.rearm, j)
		} else {
			br.requeue = append(br.requeue, j)
		}
	}
}

// flushStatsLocked folds one batch's accumulated stats into the shard;
// sh.mu must be held.
func (sh *shard) flushStatsLocked(c Class, bs *batchStats, size int) {
	sh.executed[c] += bs.executed
	sh.lateRuns += bs.lateRuns
	sh.skippedTicks += bs.skippedTicks
	sh.latSum += bs.run.sum
	if bs.run.max > sh.latMax {
		sh.latMax = bs.run.max
	}
	for i, n := range bs.run.counts {
		sh.latCounts[i] += n
	}
	sh.batches++
	sh.batchJobs += uint64(size)
	if size > sh.maxBatch {
		sh.maxBatch = size
	}
}

// flushTelemetry mirrors one batch's stats into the process-wide
// instruments — a handful of atomic adds per batch, outside any lock.
func (sh *shard) flushTelemetry(c Class, bs *batchStats, size int) {
	if bs.executed > 0 {
		telExecutedByClass[c].Add(bs.executed)
		telRunSecondsByClass[c].Merge(bs.run.counts[:], bs.run.sum, bs.run.max)
		telFireLagByClass[c].Merge(bs.fireLag.counts[:], bs.fireLag.sum, bs.fireLag.max)
	}
	if bs.lateRuns > 0 {
		telLateRuns.Add(bs.lateRuns)
	}
	if bs.skippedTicks > 0 {
		telSkippedTicks.Add(bs.skippedTicks)
	}
	telBatchesByClass[c].Inc()
	telBatchJobsByClass[c].Observe(time.Duration(size) * batchJobUnit)
}
