package registry

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/sched"
	"repro/internal/sim"
)

// logEntry is one recorded WAL call.
type logEntry struct {
	op string
	id string
}

// fakeWAL records every hook call and can be told to fail, standing in
// for a degraded persist.ControlLog.
type fakeWAL struct {
	mu      sync.Mutex
	entries []logEntry
	err     error
}

func (w *fakeWAL) log(op, id string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.entries = append(w.entries, logEntry{op, id})
	return nil
}

func (w *fakeWAL) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.err = err
}

func (w *fakeWAL) ops() []logEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]logEntry(nil), w.entries...)
}

func (w *fakeWAL) FlowCreated(id string, spec flow.Spec, opts sim.Options) error {
	return w.log("create", id)
}
func (w *fakeWAL) FlowPaced(id string, pace float64, wallTick time.Duration) error {
	return w.log("pace", id)
}
func (w *fakeWAL) FlowTuned(id string, kind flow.LayerKind, ref, deadBand *float64, window *time.Duration) error {
	return w.log("tune", id)
}
func (w *fakeWAL) FlowDeleted(id string) error { return w.log("delete", id) }

func TestWALHookSeesEveryMutation(t *testing.T) {
	plane := sched.New(sched.Config{Shards: 1})
	defer plane.Close()
	r := New(WithScheduler(plane))
	defer r.Close()
	w := &fakeWAL{}
	r.SetWAL(w)

	f, err := r.Create("a", testSpec(t, "a"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StartPacing(10, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ref := 80.0
	if found, err := f.Tune(flow.Ingestion, &ref, nil, nil); err != nil || !found {
		t.Fatalf("Tune: found=%v err=%v", found, err)
	}
	if err := f.StopPacing(); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}

	want := []logEntry{{"create", "a"}, {"pace", "a"}, {"tune", "a"}, {"pace", "a"}, {"delete", "a"}}
	got := w.ops()
	if len(got) != len(want) {
		t.Fatalf("WAL saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WAL saw %v, want %v", got, want)
		}
	}
}

func TestWALFailureAbortsMutation(t *testing.T) {
	plane := sched.New(sched.Config{Shards: 1})
	defer plane.Close()
	r := New(WithScheduler(plane))
	defer r.Close()
	w := &fakeWAL{}
	r.SetWAL(w)

	f, err := r.Create("a", testSpec(t, "a"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	w.fail(boom)

	// Create: refused, nothing registered.
	if _, err := r.Create("b", testSpec(t, "b"), sim.Options{}); !errors.Is(err, boom) {
		t.Fatalf("Create on failing WAL = %v, want the WAL error", err)
	}
	if _, ok := r.Get("b"); ok {
		t.Fatal("unlogged flow was registered")
	}

	// Pace: refused, pacer not armed.
	if err := f.StartPacing(10, 50*time.Millisecond); !errors.Is(err, boom) {
		t.Fatalf("StartPacing on failing WAL = %v", err)
	}
	if _, _, running := f.Pacing(); running {
		t.Fatal("unlogged pacer is running")
	}

	// Tune: refused, ref untouched.
	ref := 99.0
	if _, err := f.Tune(flow.Ingestion, &ref, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("Tune on failing WAL = %v", err)
	}

	// Delete: refused, flow still present.
	if err := r.Delete("a"); !errors.Is(err, boom) {
		t.Fatalf("Delete on failing WAL = %v", err)
	}
	if _, ok := r.Get("a"); !ok {
		t.Fatal("flow vanished despite the WAL refusing the delete")
	}

	// Reads keep working while mutations are refused.
	if len(r.List()) != 1 {
		t.Fatalf("List len = %d", len(r.List()))
	}

	// Detaching the hook restores an ephemeral (pre-WAL) registry.
	r.SetWAL(nil)
	if err := f.StartPacing(10, 50*time.Millisecond); err != nil {
		t.Fatalf("StartPacing after detach: %v", err)
	}
}

func TestStopPacingIdleIsNotAMutation(t *testing.T) {
	r := New()
	defer r.Close()
	w := &fakeWAL{}
	r.SetWAL(w)
	f, err := r.Create("a", testSpec(t, "a"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stopping an idle pacer is a no-op and must not log a record.
	if err := f.StopPacing(); err != nil {
		t.Fatal(err)
	}
	got := w.ops()
	if len(got) != 1 || got[0].op != "create" {
		t.Fatalf("WAL saw %v, want only the create", got)
	}
}
