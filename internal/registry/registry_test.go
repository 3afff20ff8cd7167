package registry

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sched"
	"repro/internal/sim"
)

func testSpec(t *testing.T, name string) flow.Spec {
	t.Helper()
	spec, err := flow.DefaultClickstream(2000)
	if err != nil {
		t.Fatal(err)
	}
	spec.Name = name
	return spec
}

func TestCreateGetListDelete(t *testing.T) {
	r := New()
	if _, err := r.Create("a", testSpec(t, "a"), sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("b", testSpec(t, "b"), sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	if f, ok := r.Get("a"); !ok || f.ID() != "a" {
		t.Fatalf("Get(a) = %v, %v", f, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get(nope) found a flow")
	}
	flows := r.List()
	if len(flows) != 2 || flows[0].ID() != "a" || flows[1].ID() != "b" {
		t.Fatalf("List not sorted by id: %v, %v", flows[0].ID(), flows[1].ID())
	}
	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete err = %v, want ErrNotFound", err)
	}
	if r.Len() != 1 {
		t.Fatalf("len after delete = %d, want 1", r.Len())
	}

	// A random create/delete sequence over a small id pool: after every
	// step List is exactly the live ids, in id order.
	rng := rand.New(rand.NewPCG(11, 0))
	r2 := New()
	t.Cleanup(r2.Close)
	live := map[string]bool{}
	for step := 0; step < 80; step++ {
		id := fmt.Sprintf("f%d", rng.IntN(12))
		if live[id] {
			if err := r2.Delete(id); err != nil {
				t.Fatalf("step %d: Delete(%s): %v", step, id, err)
			}
			delete(live, id)
		} else {
			if _, err := r2.Create(id, testSpec(t, id), sim.Options{}); err != nil {
				t.Fatalf("step %d: Create(%s): %v", step, id, err)
			}
			live[id] = true
		}
		want := make([]string, 0, len(live))
		for id := range live {
			want = append(want, id)
		}
		sort.Strings(want)
		var got []string
		for _, f := range r2.List() {
			got = append(got, f.ID())
		}
		if !slices.Equal(got, want) || r2.Len() != len(want) {
			t.Fatalf("step %d: List = %v (Len %d), want %v", step, got, r2.Len(), want)
		}
	}
}

func TestCreateRejectsDuplicatesAndBadIDs(t *testing.T) {
	r := New()
	if _, err := r.Create("dup", testSpec(t, "dup"), sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("dup", testSpec(t, "dup"), sim.Options{}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate err = %v, want ErrExists", err)
	}
	for _, id := range []string{"", "has space", "slash/y", "q?x", string(make([]byte, MaxIDLength+1))} {
		if _, err := r.Create(id, testSpec(t, "x"), sim.Options{}); !errors.Is(err, ErrBadID) {
			t.Errorf("Create(%q) err = %v, want ErrBadID", id, err)
		}
	}
	if err := ValidateID("ok-id_1.2"); err != nil {
		t.Errorf("ValidateID(ok-id_1.2) = %v", err)
	}
}

func TestCreateRejectsInvalidSpec(t *testing.T) {
	r := New()
	if _, err := r.Create("bad", flow.Spec{Name: "bad"}, sim.Options{}); err == nil {
		t.Error("empty spec materialised")
	}
	if r.Len() != 0 {
		t.Errorf("failed create left %d flows registered", r.Len())
	}
}

func TestFlowsAdvanceIndependently(t *testing.T) {
	r := New()
	a, err := r.Create("a", testSpec(t, "a"), sim.Options{Step: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Create("b", testSpec(t, "b"), sim.Options{Step: 10 * time.Second, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Advance(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Advance(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	ticks := func(f *Flow) (n int) {
		f.View(func(m *core.Manager) { n = m.Harness().Result().Ticks })
		return
	}
	if got := ticks(a); got != 60 {
		t.Errorf("a ticks = %d, want 60", got)
	}
	if got := ticks(b); got != 120 {
		t.Errorf("b ticks = %d, want 120", got)
	}
}

// TestConcurrentAdvanceAcrossFlows drives many flows from many goroutines;
// run with -race to prove per-flow locking suffices.
func TestConcurrentAdvanceAcrossFlows(t *testing.T) {
	r := New()
	const flows = 4
	for i := 0; i < flows; i++ {
		id := fmt.Sprintf("f%d", i)
		if _, err := r.Create(id, testSpec(t, id), sim.Options{Step: 10 * time.Second, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, f := range r.List() {
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(f *Flow) {
				defer wg.Done()
				if _, err := f.Advance(5 * time.Minute); err != nil {
					t.Errorf("%s: %v", f.ID(), err)
				}
			}(f)
		}
	}
	wg.Wait()
	for _, f := range r.List() {
		var ticks int
		f.View(func(m *core.Manager) { ticks = m.Harness().Result().Ticks })
		if ticks != 90 { // 3 goroutines x 5 minutes at 10s ticks
			t.Errorf("%s: ticks = %d, want 90", f.ID(), ticks)
		}
	}
}

func TestPacerAdvancesAndStops(t *testing.T) {
	r := New()
	f, err := r.Create("paced", testSpec(t, "paced"), sim.Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ticks := func() (n int) {
		f.View(func(m *core.Manager) { n = m.Harness().Result().Ticks })
		return
	}
	// 20 simulated minutes per wall second, ticking every 10ms: each wall
	// tick owes 12s of simulated time, comfortably above the 10s sim step.
	if err := f.StartPacing(1200, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, _, running := f.Pacing(); !running {
		t.Error("pacer not reported running")
	}
	time.Sleep(120 * time.Millisecond)
	f.StopPacing()
	after := ticks()
	if after == 0 {
		t.Error("pacer did not advance")
	}
	if _, _, running := f.Pacing(); running {
		t.Error("pacer reported running after stop")
	}
	// After StopPacing, time must stand still.
	time.Sleep(50 * time.Millisecond)
	if later := ticks(); later != after {
		t.Errorf("pacer still running after stop: %d -> %d ticks", after, later)
	}
}

func TestStopPacingWithoutStartIsNoop(t *testing.T) {
	r := New()
	f, err := r.Create("idle", testSpec(t, "idle"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.StopPacing() // must not panic
}

func TestPacingRejectsBadArguments(t *testing.T) {
	r := New()
	f, err := r.Create("x", testSpec(t, "x"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StartPacing(0, time.Millisecond); err == nil {
		t.Error("pace 0 accepted")
	}
	if err := f.StartPacing(60, 0); err == nil {
		t.Error("wall tick 0 accepted")
	}
}

// TestConcurrentStartStopPacing hammers the pacer lifecycle from many
// goroutines. The old single-flow server read pacerStop/pacerDone without
// a lock, so concurrent calls could double-close the stop channel and
// panic; with -race this test proves the per-flow pacer state is safe.
func TestConcurrentStartStopPacing(t *testing.T) {
	r := New()
	f, err := r.Create("hammer", testSpec(t, "hammer"), sim.Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if i%2 == 0 {
					if err := f.StartPacing(600, 5*time.Millisecond); err != nil {
						t.Error(err)
					}
				} else {
					f.StopPacing()
				}
			}
		}(i)
	}
	wg.Wait()
	f.StopPacing()
	if _, _, running := f.Pacing(); running {
		t.Error("pacer running after final stop")
	}
}

func TestPaceErrorNilAcrossLifecycle(t *testing.T) {
	r := New()
	f, err := r.Create("ok", testSpec(t, "ok"), sim.Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StartPacing(1200, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	f.StopPacing()
	if err := f.PaceError(); err != nil {
		t.Errorf("PaceError after clean stop = %v", err)
	}
	// Restarting clears any recorded failure and runs again.
	if err := f.StartPacing(1200, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	f.StopPacing()
	if err := f.PaceError(); err != nil {
		t.Errorf("PaceError after restart = %v", err)
	}
}

func TestDeleteStopsPacer(t *testing.T) {
	r := New()
	f, err := r.Create("doomed", testSpec(t, "doomed"), sim.Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StartPacing(1200, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, _, running := f.Pacing(); running {
		t.Error("pacer running after delete")
	}
}

func TestCloseStopsAllPacers(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("p%d", i)
		f, err := r.Create(id, testSpec(t, id), sim.Options{Step: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.StartPacing(1200, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	for _, f := range r.List() {
		if _, _, running := f.Pacing(); running {
			t.Errorf("%s: pacer running after Close", f.ID())
		}
	}
}

// lightSpec is a minimal three-layer flow for scale tests: constant
// workload, small windows, no dashboard — the cheapest spec that still
// exercises the full advance path.
func lightSpec(t testing.TB, name string) flow.Spec {
	t.Helper()
	spec, err := flow.NewBuilder(name).
		WithWorkload(flow.WorkloadSpec{Pattern: "constant", Base: 1000}).
		WithIngestion(2, 1, 50, flow.DefaultAdaptive(60, 2*time.Minute, 4)).
		WithAnalytics(2, 1, 50, flow.DefaultAdaptive(60, 2*time.Minute, 4)).
		WithStorage(200, 50, 20000, flow.DefaultAdaptive(60, 2*time.Minute, 400)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeleteMidPacePublishesNothingAfterDeleted deletes an actively pacing
// flow and asserts flow.deleted is the final event for that flow on the
// bus: the pacer is fenced and drained before the lifecycle event goes
// out, so no flow.pace or flow.advanced can trail it. Run with -race.
func TestDeleteMidPacePublishesNothingAfterDeleted(t *testing.T) {
	r := New()
	sub := r.Events().Subscribe(8192, 0, nil)
	defer sub.Close()

	f, err := r.Create("doomed", testSpec(t, "doomed"), sim.Options{Step: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StartPacing(2400, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Let the pacer publish advances, then delete mid-pace.
	deadline := time.Now().Add(time.Minute)
	for {
		var ticks int
		f.View(func(m *core.Manager) { ticks = m.Harness().Result().Ticks })
		if ticks > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pacer never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	// Any straggling publication would land within a tick or two.
	time.Sleep(50 * time.Millisecond)

	var types []string
	for {
		select {
		case ev := <-sub.Events():
			types = append(types, ev.Type)
			continue
		default:
		}
		break
	}
	if n := sub.Dropped(); n > 0 {
		t.Fatalf("subscriber dropped %d events; buffer too small for the test", n)
	}
	deletedAt := -1
	for i, typ := range types {
		if typ == EventFlowDeleted {
			deletedAt = i
		}
	}
	if deletedAt < 0 {
		t.Fatalf("no flow.deleted on the stream: %v", types)
	}
	if rest := types[deletedAt+1:]; len(rest) > 0 {
		t.Fatalf("events published after flow.deleted: %v", rest)
	}
	// And the deletion must have stopped the clock.
	var before int
	f.View(func(m *core.Manager) { before = m.Harness().Result().Ticks })
	time.Sleep(30 * time.Millisecond)
	var after int
	f.View(func(m *core.Manager) { after = m.Harness().Result().Ticks })
	if after != before {
		t.Fatalf("detached flow still pacing: %d -> %d ticks", before, after)
	}
}

// TestDeleteRacesPacerHammer repeats delete-mid-pace with a fast tick many
// times; -race proves the fence/drain/publish order holds under load.
func TestDeleteRacesPacerHammer(t *testing.T) {
	r := New()
	sub := r.Events().Subscribe(16384, 0, nil)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("flow-%d", i)
		f, err := r.Create(id, lightSpec(t, id), sim.Options{Step: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.StartPacing(6000, 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		go func() { _ = r.Delete(id) }()
	}
	deadline := time.Now().Add(time.Minute)
	for r.Len() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("deletes never finished")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
	lastOfFlow := map[string]string{}
	for {
		select {
		case ev := <-sub.Events():
			lastOfFlow[ev.Topic] = ev.Type
			continue
		default:
		}
		break
	}
	for id, typ := range lastOfFlow {
		if typ != EventFlowDeleted {
			t.Errorf("flow %s: final event %q, want %q", id, typ, EventFlowDeleted)
		}
	}
}

// TestThousandFlowsPacedGoroutineBound paces 1000 flows concurrently on
// the shared scheduler and asserts the goroutine count stays O(shards),
// not O(flows) — the defining property of the unified execution plane.
// Run with -race (the acceptance bar of the scheduler refactor).
func TestThousandFlowsPacedGoroutineBound(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-flow scale test")
	}
	base := runtime.NumGoroutine()
	s := sched.New(sched.Config{Shards: 8})
	defer s.Close()
	r := New(WithScheduler(s))

	spec := lightSpec(t, "scale")
	const flows = 1000
	for i := 0; i < flows; i++ {
		id := fmt.Sprintf("f-%04d", i)
		sp := spec
		sp.Name = id
		f, err := r.Create(id, sp, sim.Options{Step: 10 * time.Second, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		// 240 sim-seconds per wall second at a 50ms tick: 12s owed per
		// tick, one-plus sim steps each — heavily oversubscribed on
		// purpose; the bounded catch-up policy absorbs the overload.
		if err := f.StartPacing(240, 50*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// O(shards) not O(flows): 8 shards contribute ~16 scheduler
	// goroutines. Anything near the flow count means pacers spawned
	// goroutines again.
	if g := runtime.NumGoroutine(); g > base+flows/4 {
		t.Fatalf("goroutine count O(flows): %d for %d paced flows (base %d)", g, flows, base)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		total := 0
		for _, f := range r.List() {
			f.View(func(m *core.Manager) { total += m.Harness().Result().Ticks })
			if total > 50 {
				break
			}
		}
		if total > 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("1000 paced flows made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base+flows/4 {
		t.Fatalf("goroutine count grew towards O(flows) while pacing: %d (base %d)", g, base)
	}
	st := s.Stats()
	if st.ExecutedFlow == 0 {
		t.Fatal("scheduler executed no flow ticks")
	}
	r.Close()
}

// TestStartPacingRacingDeleteNeverOrphansPacer races StartPacing against
// Delete: whatever the interleaving, once both return the flow must not
// be pacing (an orphan pacer would advance an unreachable flow forever),
// and the final event for the flow must still be flow.deleted. Run with
// -race.
func TestStartPacingRacingDeleteNeverOrphansPacer(t *testing.T) {
	r := New()
	sub := r.Events().Subscribe(16384, 0, nil)
	defer sub.Close()
	for i := 0; i < 25; i++ {
		id := fmt.Sprintf("race-%d", i)
		f, err := r.Create(id, lightSpec(t, id), sim.Options{Step: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = r.Delete(id)
		}()
		go func() {
			defer wg.Done()
			// Either outcome is legal; an orphan pacer is not.
			_ = f.StartPacing(600, 5*time.Millisecond)
		}()
		wg.Wait()
		// Delete has returned: it either fenced before the pacer
		// registered (StartPacing failed) or stopped the one that won.
		if _, _, running := f.Pacing(); running {
			t.Fatalf("iteration %d: pacer running after Delete returned", i)
		}
	}
	time.Sleep(30 * time.Millisecond)
	lastOfFlow := map[string]string{}
	for {
		select {
		case ev := <-sub.Events():
			lastOfFlow[ev.Topic] = ev.Type
			continue
		default:
		}
		break
	}
	for id, typ := range lastOfFlow {
		if typ != EventFlowDeleted {
			t.Errorf("flow %s: final event %q, want %q", id, typ, EventFlowDeleted)
		}
	}
}
