package persist

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lab"
	"repro/internal/registry"
	"repro/internal/sim"
)

// This file is the bridge between the storage engine (wal.go) and the
// live control plane: the op payloads, the ControlLog methods that make
// it a registry.WAL and a lab.WAL (both planes hook one log), state
// capture for checkpoints, and crash recovery — reduce the
// checkpoint+tail into final state, then materialise it through the
// registry and engine's ordinary entry points (with no WAL attached
// yet, so replay never re-logs itself).

// --- op payloads ---

// FlowCreateOp is the payload of OpFlowCreate.
type FlowCreateOp struct {
	ID   string    `json:"id"`
	Spec flow.Spec `json:"spec"`
	// StepNS and Seed are the sim.Options the flow materialises under —
	// the only options the control plane's create paths set.
	StepNS int64 `json:"step_ns,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// FlowPaceOp is the payload of OpFlowPace; Pace 0 records a stop.
type FlowPaceOp struct {
	ID         string  `json:"id"`
	Pace       float64 `json:"pace"`
	WallTickNS int64   `json:"wall_tick_ns,omitempty"`
}

// FlowTuneOp is the payload of OpFlowTune; nil fields were not touched.
type FlowTuneOp struct {
	ID       string   `json:"id"`
	Layer    string   `json:"layer"`
	Ref      *float64 `json:"ref,omitempty"`
	WindowNS *int64   `json:"window_ns,omitempty"`
	DeadBand *float64 `json:"dead_band,omitempty"`
}

// FlowDeleteOp is the payload of OpFlowDelete.
type FlowDeleteOp struct {
	ID string `json:"id"`
}

// ExperimentSubmitOp is the payload of OpExperimentSubmit; lab.Spec is
// already a declarative JSON document, so it rides whole.
type ExperimentSubmitOp struct {
	ID   string   `json:"id"`
	Spec lab.Spec `json:"spec"`
}

// ExperimentOp is the payload of OpExperimentCancel / OpExperimentDelete.
type ExperimentOp struct {
	ID string `json:"id"`
}

// ExperimentFinishOp is the payload of OpExperimentFinish.
type ExperimentFinishOp struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

// --- ControlLog as the planes' durability hook ---

// FlowCreated implements registry.WAL.
func (l *ControlLog) FlowCreated(id string, spec flow.Spec, opts sim.Options) error {
	return l.Append(OpFlowCreate, FlowCreateOp{ID: id, Spec: spec, StepNS: int64(opts.Step), Seed: opts.Seed})
}

// FlowPaced implements registry.WAL; pace 0 records a stop.
func (l *ControlLog) FlowPaced(id string, pace float64, wallTick time.Duration) error {
	return l.Append(OpFlowPace, FlowPaceOp{ID: id, Pace: pace, WallTickNS: int64(wallTick)})
}

// FlowTuned implements registry.WAL.
func (l *ControlLog) FlowTuned(id string, kind flow.LayerKind, ref, deadBand *float64, window *time.Duration) error {
	op := FlowTuneOp{ID: id, Layer: string(kind), Ref: ref, DeadBand: deadBand}
	if window != nil {
		ns := int64(*window)
		op.WindowNS = &ns
	}
	return l.Append(OpFlowTune, op)
}

// FlowDeleted implements registry.WAL.
func (l *ControlLog) FlowDeleted(id string) error {
	return l.Append(OpFlowDelete, FlowDeleteOp{ID: id})
}

// ExperimentSubmitted implements lab.WAL.
func (l *ControlLog) ExperimentSubmitted(id string, spec lab.Spec) error {
	return l.Append(OpExperimentSubmit, ExperimentSubmitOp{ID: id, Spec: spec})
}

// ExperimentCancelled implements lab.WAL.
func (l *ControlLog) ExperimentCancelled(id string) error {
	return l.Append(OpExperimentCancel, ExperimentOp{ID: id})
}

// ExperimentFinished implements lab.WAL.
func (l *ControlLog) ExperimentFinished(id string, status lab.Status) error {
	return l.Append(OpExperimentFinish, ExperimentFinishOp{ID: id, Status: string(status)})
}

// ExperimentDeleted implements lab.WAL.
func (l *ControlLog) ExperimentDeleted(id string) error {
	return l.Append(OpExperimentDelete, ExperimentOp{ID: id})
}

// --- checkpoint capture ---

// CaptureControlState snapshots the live control plane as a checkpoint
// document: every flow's definition, sim options, pacer state and
// controller tunings, plus every *unfinished* experiment. A flow whose
// delete is already logged is left out (see Flow.ViewLive). It takes
// registry and engine locks flow-by-flow (never the ControlLog's), so
// it is safe to call from CompactWith's capture callback.
func CaptureControlState(reg *registry.Registry, eng *lab.Engine) *ControlCheckpoint {
	ckpt := &ControlCheckpoint{}
	if reg != nil {
		for _, f := range reg.List() {
			fc := FlowCheckpoint{ID: f.ID()}
			opts := f.Options()
			fc.StepNS, fc.Seed = int64(opts.Step), opts.Seed
			live := f.ViewLive(func(m *core.Manager) {
				if data, err := json.Marshal(m.Spec()); err == nil {
					fc.Spec = data
				}
				loops := m.Harness().Loops
				if len(loops) > 0 {
					fc.Controllers = make(map[string]ControllerCheckpoint, len(loops))
					for kind, loop := range loops {
						fc.Controllers[string(kind)] = ControllerCheckpoint{
							Ref: loop.Ref(), WindowNS: int64(loop.Window()), DeadBand: loop.DeadBand(),
						}
					}
				}
			})
			if !live {
				continue // its delete is logged, possibly below this checkpoint's watermark
			}
			if pace, wallTick, running := f.Pacing(); running {
				fc.Pace, fc.WallTickNS = pace, int64(wallTick)
			}
			ckpt.Flows = append(ckpt.Flows, fc)
		}
	}
	if eng != nil {
		for _, x := range eng.List() {
			switch x.Status() {
			case lab.StatusRunning, lab.StatusInterrupted:
				// Unfinished: must survive the next crash too.
			default:
				continue
			}
			data, err := json.Marshal(x.Spec())
			if err != nil {
				continue
			}
			ckpt.Experiments = append(ckpt.Experiments, ExperimentCheckpoint{ID: x.ID(), Spec: data})
		}
	}
	return ckpt
}

// --- recovery ---

// ResumableExperiment is an unfinished experiment recovery found; with
// -resume-experiments the daemon resubmits it instead of marking it
// interrupted.
type ResumableExperiment struct {
	ID   string
	Spec lab.Spec
}

// RecoveryReport summarises what RecoverControlPlane rebuilt.
type RecoveryReport struct {
	FlowsRestored          int
	PacersRearmed          int
	TunesApplied           int
	ExperimentsInterrupted int
	// Resumable lists the unfinished experiments handed back for
	// resubmission instead of being marked interrupted.
	Resumable []ResumableExperiment
	// ReplayedRecords counts WAL tail records folded into the state.
	ReplayedRecords int
	// TornTail reports that the WAL ended mid-record (tolerated).
	TornTail bool
	// Errors lists per-item failures (a spec that no longer
	// materialises, a pacer that could not arm). Recovery restores
	// everything else rather than failing the boot.
	Errors []string
}

// flowRebuild is one flow's reduced target state.
type flowRebuild struct {
	id       string
	spec     flow.Spec
	opts     sim.Options
	pace     float64
	wallTick time.Duration
	tunes    []FlowTuneOp
}

// RecoverControlPlane folds state (checkpoint + WAL tail) into final
// control-plane state and materialises it: flows re-created through
// reg.Create, controller tunings re-applied, pacers re-armed on the
// registry's scheduler, unfinished experiments marked interrupted via
// eng.Restore — or, with resume set, returned in Report.Resumable for
// the caller to resubmit once the WAL hook is attached. Call it before
// reg.SetWAL/eng.SetWAL so replay does not re-log itself.
func RecoverControlPlane(state *RecoveredState, reg *registry.Registry, eng *lab.Engine, resume bool) RecoveryReport {
	var rep RecoveryReport
	if state == nil {
		return rep
	}
	rep.TornTail = state.TornTail
	rep.ReplayedRecords = len(state.Tail)

	flows := map[string]*flowRebuild{}
	var flowOrder []string
	exps := map[string]lab.Spec{}
	var expOrder []string
	fail := func(format string, args ...any) {
		rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
	}

	if ckpt := state.Checkpoint; ckpt != nil {
		for _, fc := range ckpt.Flows {
			fr := &flowRebuild{
				id:       fc.ID,
				opts:     sim.Options{Step: time.Duration(fc.StepNS), Seed: fc.Seed},
				pace:     fc.Pace,
				wallTick: time.Duration(fc.WallTickNS),
			}
			if err := json.Unmarshal(fc.Spec, &fr.spec); err != nil {
				fail("checkpoint flow %q: decode spec: %v", fc.ID, err)
				continue
			}
			// Controller tunings from the checkpoint become the first
			// tunes, fully specified.
			kinds := make([]string, 0, len(fc.Controllers))
			for kind := range fc.Controllers {
				kinds = append(kinds, kind)
			}
			sort.Strings(kinds)
			for _, kind := range kinds {
				cc := fc.Controllers[kind]
				ref, dead, win := cc.Ref, cc.DeadBand, cc.WindowNS
				fr.tunes = append(fr.tunes, FlowTuneOp{
					ID: fc.ID, Layer: kind, Ref: &ref, DeadBand: &dead, WindowNS: &win,
				})
			}
			flows[fc.ID] = fr
			flowOrder = append(flowOrder, fc.ID)
		}
		for _, xc := range ckpt.Experiments {
			var spec lab.Spec
			if err := json.Unmarshal(xc.Spec, &spec); err != nil {
				fail("checkpoint experiment %q: decode spec: %v", xc.ID, err)
				continue
			}
			exps[xc.ID] = spec
			expOrder = append(expOrder, xc.ID)
		}
	}

	// Fold the WAL tail, newest state wins.
	for _, rec := range state.Tail {
		switch rec.Op {
		case OpFlowCreate:
			var op FlowCreateOp
			if err := rec.Decode(&op); err != nil {
				fail("wal seq %d: %v", rec.Seq, err)
				continue
			}
			if _, dup := flows[op.ID]; !dup {
				flowOrder = append(flowOrder, op.ID)
			}
			flows[op.ID] = &flowRebuild{
				id: op.ID, spec: op.Spec,
				opts: sim.Options{Step: time.Duration(op.StepNS), Seed: op.Seed},
			}
		case OpFlowPace:
			var op FlowPaceOp
			if err := rec.Decode(&op); err != nil {
				fail("wal seq %d: %v", rec.Seq, err)
				continue
			}
			if fr, ok := flows[op.ID]; ok {
				fr.pace, fr.wallTick = op.Pace, time.Duration(op.WallTickNS)
			}
		case OpFlowTune:
			var op FlowTuneOp
			if err := rec.Decode(&op); err != nil {
				fail("wal seq %d: %v", rec.Seq, err)
				continue
			}
			if fr, ok := flows[op.ID]; ok {
				fr.tunes = append(fr.tunes, op)
			}
		case OpFlowDelete:
			var op FlowDeleteOp
			if err := rec.Decode(&op); err != nil {
				fail("wal seq %d: %v", rec.Seq, err)
				continue
			}
			delete(flows, op.ID)
		case OpExperimentSubmit:
			var op ExperimentSubmitOp
			if err := rec.Decode(&op); err != nil {
				fail("wal seq %d: %v", rec.Seq, err)
				continue
			}
			if _, dup := exps[op.ID]; !dup {
				expOrder = append(expOrder, op.ID)
			}
			exps[op.ID] = op.Spec
		case OpExperimentCancel:
			// A cancel that reached its finish record is handled below;
			// one that didn't leaves the experiment unfinished — it
			// recovers as interrupted like any other.
		case OpExperimentFinish, OpExperimentDelete:
			var op ExperimentOp
			if err := rec.Decode(&op); err != nil {
				fail("wal seq %d: %v", rec.Seq, err)
				continue
			}
			delete(exps, op.ID)
		default:
			fail("wal seq %d: unknown op %q (skipped)", rec.Seq, rec.Op)
		}
	}
	telWALReplayed.Add(uint64(len(state.Tail)))

	// Materialise, creation order preserved.
	for _, id := range flowOrder {
		fr, ok := flows[id]
		if !ok {
			continue // deleted later in the log
		}
		f, err := reg.Create(fr.id, fr.spec, fr.opts)
		if err != nil {
			fail("restore flow %q: %v", fr.id, err)
			continue
		}
		rep.FlowsRestored++
		for _, t := range fr.tunes {
			var window *time.Duration
			if t.WindowNS != nil {
				d := time.Duration(*t.WindowNS)
				window = &d
			}
			found, err := f.Tune(flow.LayerKind(t.Layer), t.Ref, t.DeadBand, window)
			if err != nil || !found {
				fail("restore flow %q: tune layer %q: found=%v err=%v", fr.id, t.Layer, found, err)
				continue
			}
			rep.TunesApplied++
		}
		if fr.pace > 0 {
			if err := f.StartPacing(fr.pace, fr.wallTick); err != nil {
				fail("restore flow %q: pace: %v", fr.id, err)
				continue
			}
			rep.PacersRearmed++
		}
	}
	for _, id := range expOrder {
		spec, ok := exps[id]
		if !ok {
			continue // finished or deleted later in the log
		}
		if resume {
			rep.Resumable = append(rep.Resumable, ResumableExperiment{ID: id, Spec: spec})
			continue
		}
		if eng == nil {
			fail("restore experiment %q: no engine", id)
			continue
		}
		if _, err := eng.Restore(id, spec); err != nil {
			fail("restore experiment %q: %v", id, err)
			continue
		}
		rep.ExperimentsInterrupted++
	}
	return rep
}
