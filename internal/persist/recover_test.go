package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lab"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"
)

// newPlane builds a registry+engine pair on a small scheduler, cleaned up
// in reverse order.
func newPlane(t *testing.T) (*registry.Registry, *lab.Engine) {
	t.Helper()
	plane := sched.New(sched.Config{Shards: 2})
	reg := registry.New(registry.WithScheduler(plane))
	eng := lab.NewEngineOn(plane)
	t.Cleanup(func() {
		eng.Close()
		reg.Close()
		plane.Close()
	})
	return reg, eng
}

func labSpec(name string) lab.Spec {
	return lab.Spec{
		Name:     name,
		Peak:     600,
		Duration: flow.Duration(time.Minute),
		Step:     flow.Duration(10 * time.Second),
		Workloads: []lab.WorkloadVariant{{
			Name:     "constant",
			Workload: flow.WorkloadSpec{Pattern: "constant", Base: 300},
		}},
	}
}

// ingestionRef reads the live ref of a flow's ingestion controller loop.
func ingestionRef(t *testing.T, f *registry.Flow) float64 {
	t.Helper()
	var ref float64
	f.View(func(m *core.Manager) {
		loop, ok := m.Harness().Loops[flow.Ingestion]
		if !ok {
			t.Fatal("no ingestion loop")
		}
		ref = loop.Ref()
	})
	return ref
}

// TestRecoverFromWALTail drives a live, WAL-hooked control plane through
// create/pace/tune/delete, "crashes" it, and recovers a fresh plane from
// the log alone: the kill -9 path minus the process boundary.
func TestRecoverFromWALTail(t *testing.T) {
	dir := t.TempDir()
	clog, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	reg, eng := newPlane(t)
	reg.SetWAL(clog)
	eng.SetWAL(clog)

	spec, err := flow.DefaultClickstream(1500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := reg.Create("alpha", spec, sim.Options{Step: 10 * time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("beta", spec, sim.Options{Step: 10 * time.Second, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if err := a.StartPacing(42, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ref := 77.0
	if found, err := a.Tune(flow.Ingestion, &ref, nil, nil); err != nil || !found {
		t.Fatalf("Tune: found=%v err=%v", found, err)
	}
	if err := reg.Delete("beta"); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: abandon the plane without a graceful stop-pace
	// (the registry cleanup in newPlane stops pacers quietly, exactly as
	// a crash leaves no stop record).
	reg.SetWAL(nil)
	eng.SetWAL(nil)
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: a fresh plane recovered from the directory.
	clog2, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer clog2.Close()
	if state.TornTail {
		t.Fatal("clean log flagged torn")
	}
	reg2, eng2 := newPlane(t)
	rep := RecoverControlPlane(state, reg2, eng2, false)
	if len(rep.Errors) != 0 {
		t.Fatalf("recovery errors: %v", rep.Errors)
	}
	if rep.FlowsRestored != 1 || rep.PacersRearmed != 1 || rep.TunesApplied != 1 {
		t.Fatalf("report = %+v", rep)
	}

	if _, ok := reg2.Get("beta"); ok {
		t.Fatal("deleted flow came back")
	}
	a2, ok := reg2.Get("alpha")
	if !ok {
		t.Fatal("flow alpha not recovered")
	}
	if got := ingestionRef(t, a2); got != ref {
		t.Fatalf("recovered ingestion ref = %v, want %v", got, ref)
	}
	pace, wallTick, running := a2.Pacing()
	if !running || pace != 42 || wallTick != 50*time.Millisecond {
		t.Fatalf("recovered pacing = (%v, %v, %v), want (42, 50ms, true)", pace, wallTick, running)
	}
	if opts := a2.Options(); opts.Seed != 7 || opts.Step != 10*time.Second {
		t.Fatalf("recovered options = %+v", opts)
	}
}

// TestReplayToleratesTornTail: a control WAL cut off mid-record by a
// crash recovers every complete record — standard write-ahead-log
// semantics. The torn record was never acknowledged: recovery drops it,
// flags it in the report and counts it in telemetry.
func TestReplayToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	clog, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := newPlane(t)
	reg.SetWAL(clog)
	spec, err := flow.DefaultClickstream(1500)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alpha", "beta"} {
		if _, err := reg.Create(id, spec, sim.Options{Step: 10 * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	reg.SetWAL(nil)
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, WALFileName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	before := telWALTornTails.Value()
	clog2, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatalf("open over a torn tail: %v", err)
	}
	defer clog2.Close()
	if got := telWALTornTails.Value() - before; got != 1 {
		t.Errorf("flower_persist_wal_torn_tails_total moved by %d, want 1", got)
	}
	reg2, eng2 := newPlane(t)
	rep := RecoverControlPlane(state, reg2, eng2, false)
	if !rep.TornTail || rep.ReplayedRecords != 1 || rep.FlowsRestored != 1 || len(rep.Errors) != 0 {
		t.Fatalf("report = %+v, want the torn tail flagged and the 1 complete record restored", rep)
	}
	if _, ok := reg2.Get("alpha"); !ok {
		t.Fatal("flow alpha, the complete record, not recovered")
	}
	if _, ok := reg2.Get("beta"); ok {
		t.Fatal("flow beta, the torn record, was recovered")
	}
}

// TestReplayRejectsForeignOps: a record whose op the control plane does
// not know — written by another version, or a line from another log — is
// not applied. Recovery names its sequence number and op in the report
// and restores every mutation around it.
func TestReplayRejectsForeignOps(t *testing.T) {
	dir := t.TempDir()
	clog, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := newPlane(t)
	reg.SetWAL(clog)
	spec, err := flow.DefaultClickstream(1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("alpha", spec, sim.Options{Step: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := clog.Append("flow.rename", FlowDeleteOp{ID: "alpha"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("beta", spec, sim.Options{Step: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	reg.SetWAL(nil)
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}

	clog2, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer clog2.Close()
	reg2, eng2 := newPlane(t)
	rep := RecoverControlPlane(state, reg2, eng2, false)
	if len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], "seq 2") || !strings.Contains(rep.Errors[0], `"flow.rename"`) {
		t.Fatalf("recovery errors = %q, want one naming seq 2 and its op", rep.Errors)
	}
	if rep.FlowsRestored != 2 || reg2.Len() != 2 {
		t.Fatalf("restored %d flows, want both around the foreign record", rep.FlowsRestored)
	}
}

// compactingWAL is the control log with a compaction forced into
// Registry.Delete: after the delete record is appended, FlowDeleted runs
// CompactWith from another goroutine and gives it a bounded wait to
// finish, so the compaction lands between the append and the flow's
// removal from the registry. (With the fix the capture waits for the
// flow lock Delete holds, so it finishes only after Delete returns; the
// bound keeps that from hanging.)
type compactingWAL struct {
	*ControlLog
	reg      *registry.Registry
	finished chan struct{}
	err      error
}

func (w *compactingWAL) FlowDeleted(id string) error {
	if err := w.ControlLog.FlowDeleted(id); err != nil {
		return err
	}
	w.finished = make(chan struct{})
	go func() {
		defer close(w.finished)
		w.err = w.CompactWith(func() *ControlCheckpoint { return CaptureControlState(w.reg, nil) })
	}()
	select {
	case <-w.finished:
	case <-time.After(500 * time.Millisecond):
	}
	return nil
}

// TestDeleteSurvivesConcurrentCompaction: an acknowledged delete must not
// come back after a restart when a WAL compaction ran while the delete
// was in flight. The checkpoint's watermark covers the delete record, so
// rotation drops that record; the checkpoint must therefore not hold the
// flow either.
func TestDeleteSurvivesConcurrentCompaction(t *testing.T) {
	dir := t.TempDir()
	clog, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := newPlane(t)
	w := &compactingWAL{ControlLog: clog, reg: reg}
	reg.SetWAL(w)

	spec, err := flow.DefaultClickstream(1500)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"keep", "gone"} {
		if _, err := reg.Create(id, spec, sim.Options{Step: 10 * time.Second, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.finished:
	case <-time.After(10 * time.Second):
		t.Fatal("compaction did not finish after Delete returned")
	}
	if w.err != nil {
		t.Fatalf("CompactWith: %v", w.err)
	}
	reg.SetWAL(nil)
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}

	clog2, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer clog2.Close()
	if state.Checkpoint == nil {
		t.Fatal("no checkpoint written")
	}
	reg2, eng2 := newPlane(t)
	if rep := RecoverControlPlane(state, reg2, eng2, false); len(rep.Errors) != 0 {
		t.Fatalf("recovery errors: %v", rep.Errors)
	}
	if _, ok := reg2.Get("gone"); ok {
		t.Fatal("acknowledged delete lost: flow came back after recovery")
	}
	if _, ok := reg2.Get("keep"); !ok {
		t.Fatal("flow keep not recovered")
	}
}

// TestRecoverCheckpointRoundTrip captures a live plane (including an
// interrupted experiment) as a checkpoint and recovers a fresh plane from
// the checkpoint alone.
func TestRecoverCheckpointRoundTrip(t *testing.T) {
	reg, eng := newPlane(t)
	spec, err := flow.DefaultClickstream(1500)
	if err != nil {
		t.Fatal(err)
	}
	f, err := reg.Create("alpha", spec, sim.Options{Step: 10 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.StartPacing(60, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ref, dead := 85.5, 7.5
	win := 4 * time.Minute
	if found, err := f.Tune(flow.Ingestion, &ref, &dead, &win); err != nil || !found {
		t.Fatalf("Tune: found=%v err=%v", found, err)
	}
	// An experiment recovered as interrupted is still unfinished — it
	// must be captured so it survives the *next* crash too.
	if _, err := eng.Restore("halfway", labSpec("halfway")); err != nil {
		t.Fatal(err)
	}

	ckpt := CaptureControlState(reg, eng)
	if len(ckpt.Flows) != 1 || len(ckpt.Experiments) != 1 {
		t.Fatalf("captured %d flows, %d experiments", len(ckpt.Flows), len(ckpt.Experiments))
	}

	reg2, eng2 := newPlane(t)
	rep := RecoverControlPlane(&RecoveredState{Checkpoint: ckpt}, reg2, eng2, false)
	if len(rep.Errors) != 0 {
		t.Fatalf("recovery errors: %v", rep.Errors)
	}
	f2, ok := reg2.Get("alpha")
	if !ok {
		t.Fatal("flow not recovered")
	}
	f2.View(func(m *core.Manager) {
		loop := m.Harness().Loops[flow.Ingestion]
		if loop.Ref() != ref || loop.DeadBand() != dead || loop.Window() != win {
			t.Errorf("recovered loop = (ref %v, dead %v, win %v)", loop.Ref(), loop.DeadBand(), loop.Window())
		}
	})
	if pace, _, running := f2.Pacing(); !running || pace != 60 {
		t.Fatalf("recovered pacing = (%v, %v)", pace, running)
	}
	x, ok := eng2.Get("halfway")
	if !ok {
		t.Fatal("experiment not recovered")
	}
	if x.Status() != lab.StatusInterrupted {
		t.Fatalf("recovered experiment status = %q, want interrupted", x.Status())
	}
	if rep.ExperimentsInterrupted != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestRecoverExperimentSemantics: a finished experiment leaves nothing to
// recover; an unfinished one recovers interrupted with every trial
// cancelled — or, with resume, is handed back for resubmission.
func TestRecoverExperimentSemantics(t *testing.T) {
	dir := t.TempDir()
	clog, _, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendOps := []struct {
		op      string
		payload any
	}{
		{OpExperimentSubmit, ExperimentSubmitOp{ID: "done", Spec: labSpec("done")}},
		{OpExperimentSubmit, ExperimentSubmitOp{ID: "crashy", Spec: labSpec("crashy")}},
		{OpExperimentFinish, ExperimentFinishOp{ID: "done", Status: string(lab.StatusCompleted)}},
	}
	for _, o := range appendOps {
		if err := clog.Append(o.op, o.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := clog.Close(); err != nil {
		t.Fatal(err)
	}

	open := func() *RecoveredState {
		t.Helper()
		l, state, err := OpenControlLog(dir, ControlLogOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		return state
	}

	// Default: interrupted, all trials cancelled, terminal immediately.
	reg, eng := newPlane(t)
	rep := RecoverControlPlane(open(), reg, eng, false)
	if len(rep.Errors) != 0 {
		t.Fatalf("recovery errors: %v", rep.Errors)
	}
	if _, ok := eng.Get("done"); ok {
		t.Fatal("finished experiment recovered; its results died with the process")
	}
	x, ok := eng.Get("crashy")
	if !ok {
		t.Fatal("unfinished experiment not recovered")
	}
	if x.Status() != lab.StatusInterrupted {
		t.Fatalf("status = %q, want interrupted", x.Status())
	}
	select {
	case <-x.Done():
	default:
		t.Fatal("interrupted experiment's Done channel still open")
	}
	for _, tr := range x.Results().Trials {
		if tr.Status != lab.TrialCancelled {
			t.Fatalf("trial %q status = %q, want cancelled", tr.Name, tr.Status)
		}
	}

	// Resume: handed back, not restored.
	reg2, eng2 := newPlane(t)
	rep = RecoverControlPlane(open(), reg2, eng2, true)
	if _, ok := eng2.Get("crashy"); ok {
		t.Fatal("resumable experiment restored as interrupted")
	}
	if len(rep.Resumable) != 1 || rep.Resumable[0].ID != "crashy" {
		t.Fatalf("resumable = %+v", rep.Resumable)
	}
}
