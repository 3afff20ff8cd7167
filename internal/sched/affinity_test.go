package sched

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// trackedJob is one periodic job plus everything the accounting checks
// need: what its callback saw, where its id hashes, and the schedule the
// scheduler committed to (first fire time, read back from the job).
type trackedJob struct {
	tk       *Ticket
	shard    int
	interval time.Duration
	first    time.Time // nextAt as armed by Periodic
	work     time.Duration

	calls     atomic.Uint64 // tick invocations
	delivered atomic.Uint64 // intervals those invocations carried

	stopBefore, stopAfter time.Time // wall time bracketing Ticket.Stop
}

func (tj *trackedJob) tick(n int) error {
	tj.calls.Add(1)
	tj.delivered.Add(uint64(n))
	if tj.work > 0 {
		for end := time.Now().Add(tj.work); time.Now().Before(end); {
		}
	}
	return nil
}

func (tj *trackedJob) stop() {
	tj.stopBefore = time.Now()
	tj.tk.Stop()
	tj.stopAfter = time.Now()
}

// demand counts the fire times of the job's fixed-rate schedule at or
// before t.
func (tj *trackedJob) demand(t time.Time) uint64 {
	if t.Before(tj.first) {
		return 0
	}
	return uint64(t.Sub(tj.first)/tj.interval) + 1
}

// acknowledged is how many fire times the scheduler consumed: every run
// moves nextAt forward by the intervals it owed, delivered or skipped.
func (tj *trackedJob) acknowledged() uint64 {
	tj.tk.j.mu.Lock()
	defer tj.tk.j.mu.Unlock()
	return uint64(tj.tk.j.nextAt.Sub(tj.first) / tj.interval)
}

func registerTracked(t *testing.T, s *Scheduler, id string, interval, work time.Duration) *trackedJob {
	t.Helper()
	tj := &trackedJob{shard: s.shardFor(id).idx, interval: interval, work: work}
	tk, err := s.Periodic(id, ClassFlow, interval, tj.tick, nil)
	if err != nil {
		t.Fatal(err)
	}
	tj.tk = tk
	tk.j.mu.Lock()
	tj.first = tk.j.nextAt
	tk.j.mu.Unlock()
	return tj
}

// shardLedger sums the tracked jobs hashing to one shard.
type shardLedger struct {
	jobs                                  uint64
	calls, delivered, acknowledged        uint64
	demandAtStopBefore, demandAtStopAfter uint64
}

func ledgers(shards int, jobs []*trackedJob) []shardLedger {
	out := make([]shardLedger, shards)
	for _, tj := range jobs {
		l := &out[tj.shard]
		l.jobs++
		l.calls += tj.calls.Load()
		l.delivered += tj.delivered.Load()
		l.acknowledged += tj.acknowledged()
		l.demandAtStopBefore += tj.demand(tj.stopBefore)
		l.demandAtStopAfter += tj.demand(tj.stopAfter)
	}
	return out
}

// TestShardAffinityAndAccounting drives a seeded random register/stop
// sequence and then closes the books per shard. Because a periodic job is
// armed, queued, executed and re-armed only on the shard its id hashes to,
// every per-shard counter must equal what the callbacks of exactly those
// jobs observed — a job that ran anywhere else breaks the equality:
//
//   - executed_flow[shard] == tick invocations of the jobs hashing there
//     (no job lost, run twice, or run elsewhere);
//   - batch_jobs[shard] == executed + jobs dequeued after their Stop, and
//     a stopped job is dequeued at most once more;
//   - the scheduler's accounting identity, exactly: fire times consumed
//     == intervals delivered + skipped_ticks[shard];
//   - against the wall clock: fire times consumed never exceed the
//     schedule's demand (the wheel never fires early) and trail it by at
//     most one in-flight tick per job.
func TestShardAffinityAndAccounting(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := newScheduler(Config{Shards: shards}, wheel{tick: time.Millisecond, slots: wheelSlots}, newClock)
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(1000 + shards)))
			var all, live []*trackedJob
			for op := 0; op < 80; op++ {
				if len(live) == 0 || rng.Intn(3) > 0 {
					interval := time.Duration(20+10*rng.Intn(3)) * time.Millisecond
					tj := registerTracked(t, s, fmt.Sprintf("flow-%03d", op), interval, 0)
					all, live = append(all, tj), append(live, tj)
				} else {
					i := rng.Intn(len(live))
					live[i].stop()
					live = append(live[:i], live[i+1:]...)
				}
				time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond)
			for _, tj := range live {
				tj.stop()
			}
			// Close waits for every worker, so every batch's stats are flushed.
			s.Close()

			st := s.Stats()
			var executed, batchJobs uint64
			for i, l := range ledgers(shards, all) {
				row := st.PerShard[i]
				if row.ExecutedFlow != l.calls {
					t.Errorf("shard %d: executed_flow %d != %d tick invocations of its %d jobs",
						i, row.ExecutedFlow, l.calls, l.jobs)
				}
				if row.BatchJobs < row.ExecutedFlow || row.BatchJobs > row.ExecutedFlow+l.jobs {
					t.Errorf("shard %d: batch_jobs %d outside executed %d + at most one post-Stop dequeue per job (%d)",
						i, row.BatchJobs, row.ExecutedFlow, l.jobs)
				}
				if l.acknowledged != l.delivered+row.SkippedTicks {
					t.Errorf("shard %d: %d fire times consumed != %d delivered + %d skipped",
						i, l.acknowledged, l.delivered, row.SkippedTicks)
				}
				if l.acknowledged > l.demandAtStopAfter {
					t.Errorf("shard %d: consumed %d fire times, schedule only demanded %d (fired early)",
						i, l.acknowledged, l.demandAtStopAfter)
				}
				if l.acknowledged+l.jobs < l.demandAtStopBefore {
					t.Errorf("shard %d: consumed %d of %d demanded fire times, more than one in-flight tick per job (%d) missing",
						i, l.acknowledged, l.demandAtStopBefore, l.jobs)
				}
				executed += row.ExecutedFlow
				batchJobs += row.BatchJobs
			}
			if executed == 0 {
				t.Fatal("degenerate run: nothing executed")
			}
			if st.ExecutedFlow != executed || st.BatchJobs != batchJobs || st.ExecutedBatch != 0 {
				t.Errorf("totals %d executed / %d batch_jobs / %d batch-class != per-shard sums %d / %d / 0",
					st.ExecutedFlow, st.BatchJobs, st.ExecutedBatch, executed, batchJobs)
			}
		})
	}
}

// TestSkewedDurationsHoldSchedule is the guard that shard-affine execution
// holds under skew: on 4 shards, 2% of the jobs burn 300µs of CPU on every
// fire of a 100ms interval, so the shards they hash to run hot while the
// others idle. Nothing rebalances — and nothing needs to: no tick may be
// skipped and every job, light or heavy, must receive its schedule's demand
// to within one tick.
func TestSkewedDurationsHoldSchedule(t *testing.T) {
	const (
		jobs     = 1000
		interval = 100 * time.Millisecond
	)
	s := newScheduler(Config{Shards: 4}, wheel{tick: time.Millisecond, slots: wheelSlots}, newClock)
	defer s.Close()
	all := make([]*trackedJob, jobs)
	for i := range all {
		var work time.Duration
		if i%50 == 0 {
			work = 300 * time.Microsecond
		}
		all[i] = registerTracked(t, s, fmt.Sprintf("skew-%04d", i), interval, work)
	}
	time.Sleep(5 * interval)
	before := time.Now()
	for _, tj := range all {
		tj.tk.Stop()
	}
	after := time.Now()
	s.Close()

	if st := s.Stats(); st.SkippedTicks != 0 {
		t.Fatalf("%d ticks skipped under skew (late runs: %d)", st.SkippedTicks, st.LateRuns)
	}
	for i, tj := range all {
		got := tj.delivered.Load()
		if lo, hi := tj.demand(before), tj.demand(after); got+1 < lo || got > hi {
			t.Fatalf("job %d (work %v): delivered %d intervals, schedule demanded %d..%d", i, tj.work, got, lo, hi)
		}
	}
}

// TestHerdHoldsSchedule is the thundering-herd guard: 50k periodic 1 s
// jobs registered in one burst must register within a bounded setup time,
// and from the moment the burst ends the plane must deliver at least 90%
// of the tick rate their schedules demand. A scheduler that melts under
// simultaneous arrivals, or piles the herd into one wheel slot, fails.
func TestHerdHoldsSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock herd; skipped in -short")
	}
	const (
		jobs     = 50000
		interval = time.Second
		window   = 2 * time.Second
		maxSetup = time.Second
	)
	s := New(Config{})
	defer s.Close()
	var ticks atomic.Uint64
	tick := func(n int) error { ticks.Add(uint64(n)); return nil }

	start := time.Now()
	tks := make([]*Ticket, jobs)
	for i := range tks {
		tk, err := s.Periodic(fmt.Sprintf("herd-%05d", i), ClassFlow, interval, tick, nil)
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	setup := time.Since(start)

	before, at := ticks.Load(), time.Now()
	time.Sleep(window)
	delivered, elapsed := ticks.Load()-before, time.Since(at)
	for _, tk := range tks {
		tk.Stop()
	}

	demanded := float64(jobs) * elapsed.Seconds() / interval.Seconds()
	fidelity := float64(delivered) / demanded
	t.Logf("%d jobs: setup %v, delivered %d of %.0f demanded intervals (fidelity %.3f)",
		jobs, setup, delivered, demanded, fidelity)
	if setup > maxSetup {
		t.Errorf("registering %d jobs took %v, bound %v", jobs, setup, maxSetup)
	}
	if fidelity < 0.9 {
		t.Errorf("fidelity %.3f after the herd, want >= 0.9", fidelity)
	}
}
