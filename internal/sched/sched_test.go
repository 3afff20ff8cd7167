package sched

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPeriodicFires(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	var ticks atomic.Int64
	tk, err := s.Periodic("p", ClassFlow, 5*time.Millisecond, func(n int) error {
		ticks.Add(int64(n))
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return ticks.Load() >= 5 }, "periodic job never accumulated 5 intervals")
	tk.Stop()
	after := ticks.Load()
	time.Sleep(30 * time.Millisecond)
	if got := ticks.Load(); got != after {
		t.Fatalf("job ran after Stop: %d -> %d", after, got)
	}
	if !tk.Stopped() {
		t.Fatal("ticket not reported stopped")
	}
}

func TestPeriodicValidation(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	if _, err := s.Periodic("x", ClassFlow, 0, func(int) error { return nil }, nil); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := s.Periodic("x", ClassFlow, time.Millisecond, nil, nil); err == nil {
		t.Error("nil tick accepted")
	}
	if _, err := s.Submit("x", ClassBatch, nil, nil); err == nil {
		t.Error("nil chunk accepted")
	}
}

// TestPeriodicErrorStopsJobAndCallsOnStop: a tick error permanently stops
// the job and invokes onStop exactly once with that error.
func TestPeriodicErrorStopsJobAndCallsOnStop(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	boom := errors.New("boom")
	var runs atomic.Int64
	stopped := make(chan error, 4)
	tk, err := s.Periodic("p", ClassFlow, 2*time.Millisecond, func(n int) error {
		if runs.Add(1) == 3 {
			return boom
		}
		return nil
	}, func(err error) { stopped <- err })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-stopped:
		if !errors.Is(got, boom) {
			t.Fatalf("onStop error = %v, want boom", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("onStop never called")
	}
	if !tk.Stopped() {
		t.Fatal("job not stopped after tick error")
	}
	after := runs.Load()
	time.Sleep(20 * time.Millisecond)
	if got := runs.Load(); got != after {
		t.Fatalf("job ran after error exit: %d -> %d", after, got)
	}
	select {
	case <-stopped:
		t.Fatal("onStop called more than once")
	default:
	}
}

// TestStopWaitsForInFlightRun: Stop must not return while the job's
// function is executing.
func TestStopWaitsForInFlightRun(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var inFlight atomic.Bool
	tk, err := s.Periodic("slow", ClassFlow, time.Millisecond, func(n int) error {
		inFlight.Store(true)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		inFlight.Store(false)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan struct{})
	go func() {
		tk.Stop()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Stop returned while the tick was still executing")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop never returned after the tick finished")
	}
	if inFlight.Load() {
		t.Fatal("tick still in flight after Stop returned")
	}
}

// TestBoundedCatchUp: a tick function slower than its interval receives
// batched intervals bounded by MaxCatchUp, and the shard records late runs
// (and, once saturated, skipped ticks).
func TestBoundedCatchUp(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	var maxN atomic.Int64
	var runs atomic.Int64
	tk, err := s.Periodic("lag", ClassFlow, time.Millisecond, func(n int) error {
		if int64(n) > maxN.Load() {
			maxN.Store(int64(n))
		}
		runs.Add(1)
		time.Sleep(10 * time.Millisecond) // 10x the interval: always behind
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return runs.Load() >= 5 }, "laggy job never ran 5 times")
	tk.Stop()
	if got := maxN.Load(); got > MaxCatchUp {
		t.Fatalf("tick received %d intervals, cap is %d", got, MaxCatchUp)
	}
	st := s.Stats()
	if st.LateRuns == 0 {
		t.Error("no late runs recorded for a job 10x slower than its interval")
	}
	if st.SkippedTicks == 0 {
		t.Error("no skipped ticks recorded despite the catch-up cap binding every run")
	}
	if got := maxN.Load(); got < 2 {
		t.Errorf("catch-up never batched intervals: max n = %d", got)
	}
}

func TestChunkedJobRunsToCompletion(t *testing.T) {
	s := New(Config{Shards: 2})
	defer s.Close()
	var chunks atomic.Int64
	done := make(chan struct{})
	if _, err := s.Submit("trial", ClassBatch, func() bool {
		if chunks.Add(1) == 7 {
			close(done)
			return true
		}
		return false
	}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("chunked job never completed")
	}
	time.Sleep(10 * time.Millisecond)
	if got := chunks.Load(); got != 7 {
		t.Fatalf("chunks = %d, want exactly 7 (no run after done)", got)
	}
}

// TestChunkedJobsInterleave: with one worker, two chunked jobs must make
// progress in turns, not run-to-completion serially.
func TestChunkedJobsInterleave(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	wg.Add(2)
	for _, name := range []string{"a", "b"} {
		count := 0
		if _, err := s.Submit(name, ClassBatch, func() bool {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			count++
			if count == 3 {
				wg.Done()
				return true
			}
			return false
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// Serial execution would be aaabbb (or bbbaaa); any alternation proves
	// the re-queue-after-chunk policy interleaves.
	interleaved := false
	for i := 1; i < len(order)-1; i++ {
		if order[i] != order[i-1] && i < len(order)-1 && order[i+1] == order[i-1] {
			interleaved = true
		}
	}
	if !interleaved {
		t.Fatalf("jobs did not interleave: %v", order)
	}
}

// TestFlowsNotStarvedByBatchFlood: pacer-class periodic jobs keep firing
// while a flood of batch chunks saturates the only worker.
func TestFlowsNotStarvedByBatchFlood(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	stop := make(chan struct{})
	// An endless batch job: each chunk burns ~1ms and re-queues.
	if _, err := s.Submit("grid", ClassBatch, func() bool {
		select {
		case <-stop:
			return true
		default:
			time.Sleep(time.Millisecond)
			return false
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
	var ticks atomic.Int64
	tk, err := s.Periodic("pacer", ClassFlow, 2*time.Millisecond, func(n int) error {
		ticks.Add(int64(n))
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return ticks.Load() >= 10 },
		"pacer starved by batch flood: no 10 intervals delivered")
	tk.Stop()
	close(stop)
}

func TestStatsAndGoroutineBound(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Shards: 4})
	var ticks atomic.Int64
	var tks []*Ticket
	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		tk, err := s.Periodic("flow/"+id, ClassFlow, 3*time.Millisecond, func(n int) error {
			ticks.Add(int64(n))
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	waitFor(t, 2*time.Second, func() bool { return ticks.Load() >= 16 }, "jobs never ticked")

	st := s.Stats()
	if st.Shards != 4 {
		t.Fatalf("stats sizing: %+v", st)
	}
	if len(st.PerShard) != 4 {
		t.Fatalf("per-shard rows = %d, want 4", len(st.PerShard))
	}
	if st.ExecutedFlow == 0 {
		t.Error("no flow executions counted")
	}
	var hist uint64
	for _, row := range st.PerShard {
		hist += row.Latency.Count
	}
	if hist != st.ExecutedFlow+st.ExecutedBatch {
		t.Errorf("histogram samples %d != executions %d", hist, st.ExecutedFlow+st.ExecutedBatch)
	}
	// 8 periodic jobs armed or in flight; timers is a live gauge so allow
	// any value 0..8, but after stopping everything it must settle to 0.
	for _, tk := range tks {
		tk.Stop()
	}

	s.Close()
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before+2 },
		"scheduler goroutines leaked after Close")

	// Closed scheduler rejects new work.
	if _, err := s.Periodic("late", ClassFlow, time.Millisecond, func(int) error { return nil }, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Periodic after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Submit("late", ClassBatch, func() bool { return true }, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestManyPeriodicJobsRace arms 1000 periodic jobs across the shards and
// hammers Stop/Stats concurrently; run with -race. Goroutine count must
// stay O(shards), not O(jobs).
func TestManyPeriodicJobsRace(t *testing.T) {
	s := New(Config{Shards: 4})
	defer s.Close()
	base := runtime.NumGoroutine()
	var ticks atomic.Int64
	tks := make([]*Ticket, 1000)
	for i := range tks {
		tk, err := s.Periodic(string(rune('a'+i%26))+"/"+string(rune('0'+i%10)), ClassFlow, 10*time.Millisecond,
			func(n int) error { ticks.Add(int64(n)); return nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		tks[i] = tk
	}
	if g := runtime.NumGoroutine(); g > base+8 {
		t.Fatalf("goroutines grew with job count: %d -> %d for 1000 jobs", base, g)
	}
	waitFor(t, 5*time.Second, func() bool { return ticks.Load() >= 1000 }, "1000 periodic jobs made no progress")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tks); i += 8 {
				tks[i].Stop()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Stats()
		}
	}()
	wg.Wait()
	after := ticks.Load()
	time.Sleep(25 * time.Millisecond)
	if got := ticks.Load(); got != after {
		t.Fatalf("ticks after all jobs stopped: %d -> %d", after, got)
	}
}

// TestDrainLoopSteadyStateAllocs pins one traversal of the worker drain
// loop — pop batch → execute → flush stats → re-queue — at zero
// allocations, driven by a chunked job that hands control back every
// chunk. The loop runs once per batch for every paced flow in the
// process, so even one allocation per execution would put the garbage
// collector on the hot path.
func TestDrainLoopSteadyStateAllocs(t *testing.T) {
	s := New(Config{Shards: 1})
	defer s.Close()
	ch := make(chan struct{})
	tk, err := s.Submit("drain-hot", ClassBatch, func() bool {
		ch <- struct{}{}
		return false
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the freelists past their growth phase before measuring.
	for i := 0; i < 64; i++ {
		<-ch
	}
	allocs := testing.AllocsPerRun(1000, func() { <-ch })
	// The job is mid-send when measuring stops: keep draining until Stop
	// has seen the in-flight chunk return.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
			case <-done:
				return
			}
		}
	}()
	tk.Stop()
	close(done)
	if allocs != 0 {
		t.Fatalf("drain loop allocated %.1f/op at steady state, want 0", allocs)
	}
}

// TestCloseSettlesAbandonedChunkedJobs: a Close landing while chunked
// jobs are mid-flight (between chunks) or still queued must invoke each
// job's onStop with ErrClosed exactly once, so submitters (the lab's
// trial WaitGroups) never hang on work that will never run.
func TestCloseSettlesAbandonedChunkedJobs(t *testing.T) {
	s := New(Config{Shards: 1})
	settled := make(chan error, 8)
	firstChunk := make(chan struct{})
	var once sync.Once
	// An endless job that signals once it has run a chunk — Close will
	// catch it either queued or between chunks.
	if _, err := s.Submit("endless", ClassBatch, func() bool {
		once.Do(func() { close(firstChunk) })
		time.Sleep(time.Millisecond)
		return false
	}, func(err error) { settled <- err }); err != nil {
		t.Fatal(err)
	}
	// A second job that may never get to run at all behind the first.
	if _, err := s.Submit("starved", ClassBatch, func() bool {
		time.Sleep(time.Millisecond)
		return false
	}, func(err error) { settled <- err }); err != nil {
		t.Fatal(err)
	}
	<-firstChunk
	s.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-settled:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("onStop error = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("job %d never settled after Close", i)
		}
	}
	select {
	case <-settled:
		t.Fatal("onStop called more than once for a job")
	case <-time.After(20 * time.Millisecond):
	}
}
