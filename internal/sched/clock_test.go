package sched

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// clockKinds are the shard clocks every test here runs over: the
// platform's best (a timerfd on Linux) and the portable runtime timer that
// is its fallback there and the only clock elsewhere.
var clockKinds = []struct {
	name string
	mk   func() clock
}{
	{"platform", newClock},
	{"timer", newTimerClock},
}

func overClocks(t *testing.T, fn func(t *testing.T, mk func() clock)) {
	for _, k := range clockKinds {
		t.Run(k.name, func(t *testing.T) { fn(t, k.mk) })
	}
}

func noop(int) error { return nil }

// A wheel holding only a far deadline costs (almost) no wake-ups, and
// Close interrupts the sleep toward it.
func TestFarDeadlineSleepsAndCloseWakes(t *testing.T) {
	overClocks(t, func(t *testing.T, mk func() clock) {
		s := newScheduler(Config{Shards: 1}, defaultWheel, mk)
		if _, err := s.Periodic("far", ClassBatch, time.Hour, noop, nil); err != nil {
			t.Fatal(err)
		}
		before := telTimerWakeups.Value()
		time.Sleep(300 * time.Millisecond)
		if n := telTimerWakeups.Value() - before; n > 2 {
			t.Errorf("%d timer wake-ups in 300 ms with one 1 h job armed, want <= 2", n)
		}
		start := time.Now()
		s.Close()
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("Close took %v with the clock asleep on a far deadline, want < 100ms", d)
		}
	})
}

// An insert that lands ahead of the armed wake-up re-arms the clock. Without
// the re-arm the job waits for the far job's slot to come round (up to a
// revolution, ≈1 s) every time, so the best of three attempts keeps the
// test's power and forgives a stall of the box.
func TestEarlierInsertRearmsClock(t *testing.T) {
	overClocks(t, func(t *testing.T, mk func() clock) {
		s := newScheduler(Config{Shards: 1}, defaultWheel, mk)
		defer s.Close()
		if _, err := s.Periodic("far", ClassBatch, time.Hour, noop, nil); err != nil {
			t.Fatal(err)
		}
		var took time.Duration
		for attempt := 0; attempt < 3; attempt++ {
			time.Sleep(20 * time.Millisecond) // the loop is asleep toward "far"
			fired := make(chan time.Time, 1)
			start := time.Now()
			tk, err := s.Periodic(fmt.Sprintf("near-%d", attempt), ClassFlow, 5*time.Millisecond, func(int) error {
				select {
				case fired <- time.Now():
				default:
				}
				return nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case at := <-fired:
				took = at.Sub(start)
			case <-time.After(5 * time.Second):
				t.Fatal("5 ms job never fired")
			}
			tk.Stop()
			if took <= 20*time.Millisecond {
				return
			}
		}
		t.Errorf("5 ms job first fired %v after registration, want <= 20ms: the insert did not re-arm the sleeping clock", took)
	})
}

// A slot holding only entries with rounds still to wait is occupied: the
// loop visits it every revolution and the job fires on its round — never
// before its fire time, and not a revolution (8 ms) after it.
func TestMultiRevolutionJobFiresOnItsRound(t *testing.T) {
	overClocks(t, func(t *testing.T, mk func() clock) {
		const interval = 30 * time.Millisecond // 3.75 revolutions of an 8 × 1 ms wheel
		s := newScheduler(Config{Shards: 1}, wheel{tick: time.Millisecond, slots: 8}, mk)
		defer s.Close()
		var mu sync.Mutex
		var runs []time.Time
		var owed []int
		tk, err := s.Periodic("slow", ClassFlow, interval, func(n int) error {
			mu.Lock()
			runs, owed = append(runs, time.Now()), append(owed, n)
			mu.Unlock()
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tk.j.mu.Lock()
		first := tk.j.nextAt
		tk.j.mu.Unlock()
		waitFor(t, 5*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(runs) >= 7 }, "multi-revolution job did not fire 7 times")
		tk.Stop()
		mu.Lock()
		defer mu.Unlock()
		var late []time.Duration
		k := 0
		for i, at := range runs {
			due := first.Add(time.Duration(k) * interval)
			if at.Before(due) {
				t.Errorf("run %d at %v is before its fire time %v: fired on the wrong round", i, at.Sub(first), due.Sub(first))
			}
			late = append(late, at.Sub(due))
			k += owed[i]
		}
		slices.Sort(late)
		if med := late[len(late)/2]; med > 5*time.Millisecond {
			t.Errorf("median lateness %v over %d runs, want well under one 8 ms revolution", med, len(late))
		}
	})
}

// Every shard's slot boundaries lie on the scheduler's one grid, whenever
// the job was registered and also after a wheel went idle and re-anchored.
func TestShardsShareOneGrid(t *testing.T) {
	overClocks(t, func(t *testing.T, mk func() clock) {
		const tick = WheelTick
		s := newScheduler(Config{Shards: 4}, defaultWheel, mk)
		defer s.Close()
		for round := 0; round < 2; round++ {
			var fires, offGrid atomic.Int64
			shards := map[int]bool{}
			var tickets []*Ticket
			for i := 0; i < 12; i++ {
				time.Sleep(time.Duration(137*(i+1)) * time.Microsecond) // off-grid registration instants
				id := fmt.Sprintf("grid-%d-%d", round, i)
				jp := new(atomic.Pointer[job])
				tk, err := s.Periodic(id, ClassFlow, time.Duration(5+i)*time.Millisecond, func(int) error {
					if j := jp.Load(); j != nil {
						fires.Add(1)
						if j.armedAt.Sub(s.epoch)%tick != 0 {
							offGrid.Add(1)
						}
					}
					return nil
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				jp.Store(tk.j)
				tickets = append(tickets, tk)
				shards[s.shardFor(id).idx] = true
			}
			if len(shards) < 2 {
				t.Fatalf("12 ids hashed to %d shard(s); the test needs at least 2", len(shards))
			}
			waitFor(t, 2*time.Second, func() bool { return fires.Load() >= 100 }, "grid jobs did not fire 100 times")
			for _, tk := range tickets {
				tk.Stop()
			}
			if n := offGrid.Load(); n > 0 {
				t.Errorf("round %d: %d of %d fires were armed for a boundary off the epoch + k·tick grid", round, n, fires.Load())
			}
			// Stopped entries leave the wheel on their next fire; once every
			// wheel is empty the next insert re-anchors its cursor.
			waitFor(t, 2*time.Second, func() bool { return s.Stats().Timers == 0 }, "wheels never went idle")
			time.Sleep(3*tick + 313*time.Microsecond)
		}
	})
}
