package sched

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// TestTimerfdFireLagIsSubMillisecond holds the point of the timerfd clock:
// a 10 ms job's median fire lag (run start − slot boundary) stays well under
// the ≈500 µs the runtime timer's whole-millisecond sleep costs. A shared
// box can spoil any one attempt, so the best of three counts.
func TestTimerfdFireLagIsSubMillisecond(t *testing.T) {
	if testing.Short() {
		t.Skip("2 s of wall-clock pacing")
	}
	probe := newClock()
	_, isFD := probe.(*fdClock)
	probe.close()
	if !isFD {
		t.Skip("timerfd unavailable here: the runtime-timer fallback is in use")
	}
	const fires, bound = 200, 400 * time.Microsecond
	var median time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		s := New(Config{Shards: 1})
		var mu sync.Mutex
		var lags []time.Duration
		var j *job
		tk, err := s.Periodic("precise", ClassFlow, 10*time.Millisecond, func(int) error {
			now := time.Now()
			mu.Lock()
			if j != nil {
				lags = append(lags, now.Sub(j.armedAt))
			}
			mu.Unlock()
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		j = tk.j
		mu.Unlock()
		waitFor(t, 10*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(lags) >= fires }, "10 ms job did not fire 200 times")
		tk.Stop()
		s.Close()
		slices.Sort(lags)
		if lags[0] < 0 {
			t.Fatalf("a run started %v before its slot boundary", -lags[0])
		}
		median = lags[len(lags)/2]
		t.Logf("attempt %d: fire lag p50 %v, p90 %v, max %v over %d fires", attempt, median, lags[len(lags)*9/10], lags[len(lags)-1], len(lags))
		if median < bound {
			return
		}
	}
	t.Errorf("median fire lag %v, want < %v", median, bound)
}
