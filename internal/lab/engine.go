package lab

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eventbus"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Errors returned by engine operations; the HTTP layer maps them onto
// status codes (409, 404, 400 — invalid ids surface as
// registry.ErrBadID, the shared id grammar of the control plane).
var (
	ErrExists   = errors.New("experiment already exists")
	ErrNotFound = errors.New("experiment not found")
)

// Status is an experiment's lifecycle state.
type Status string

const (
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusCancelled Status = "cancelled"
	// StatusInterrupted marks an experiment recovered after a crash:
	// it was unfinished when the process died, its in-memory results
	// are gone, and it is settled terminally with every trial
	// cancelled. Resubmit it (or boot with -resume-experiments) to run
	// it again.
	StatusInterrupted Status = "interrupted"
)

// WAL is the engine's durability hook, mirroring registry.WAL: every
// experiment mutation is appended — and made durable — before it is
// applied and acknowledged. The engine defines the interface rather
// than importing persist (persist imports lab for recovery);
// persist.ControlLog implements both hooks.
type WAL interface {
	ExperimentSubmitted(id string, spec Spec) error
	ExperimentCancelled(id string) error
	// ExperimentFinished records a terminal status. It is appended
	// best-effort by the supervisor after the fact (a finish is an
	// outcome, not a request to acknowledge), so errors are not
	// propagated anywhere — a missed finish record merely recovers the
	// experiment as interrupted.
	ExperimentFinished(id string, status Status) error
	ExperimentDeleted(id string) error
}

// walBox wraps the WAL for atomic publication; see registry.walBox.
type walBox struct{ w WAL }

// Engine executes experiments on the shared execution plane
// (internal/sched): every trial is a chunked batch-class scheduler job,
// not a goroutine. Submitting is asynchronous — trials queue immediately
// and the scheduler's workers interleave their chunks, bounded by the
// scheduler's capacity (its one knob governs pacers and trials alike when
// the engine shares the control plane's scheduler via NewEngineOn), with
// the weighted-fairness drain keeping a big grid from starving live flow
// pacing.
type Engine struct {
	sched    *sched.Scheduler
	ownSched bool // NewEngine created the scheduler, so Close releases it
	bus      *eventbus.Bus

	mu   sync.Mutex
	exps map[string]*Experiment

	// wal, once set, makes every experiment mutation durable before it
	// is acknowledged; attached at boot after recovery replay.
	wal atomic.Pointer[walBox]
}

// NewEngine returns an engine on a private scheduler of the given
// execution capacity: one shard, and so one worker, per unit, capped at
// the scheduler's 64 shards; workers <= 0 selects GOMAXPROCS. Use
// NewEngineOn to co-schedule experiments with the rest of the control
// plane.
func NewEngine(workers int) *Engine {
	e := NewEngineOn(sched.New(sched.Config{Shards: workers}))
	e.ownSched = true
	return e
}

// NewEngineOn returns an engine running its trials on s. The caller owns
// s's lifecycle: close the engine (settling every trial) before closing
// the scheduler, never the other way around.
func NewEngineOn(s *sched.Scheduler) *Engine {
	return &Engine{
		sched: s,
		bus:   eventbus.New(0),
		exps:  make(map[string]*Experiment),
	}
}

// SetWAL attaches the durability hook: from now on every experiment
// mutation (submit, cancel, finish, delete) is appended to w before it
// is applied. Attach after recovery replay. Passing nil detaches.
func (e *Engine) SetWAL(w WAL) {
	if w == nil {
		e.wal.Store(nil)
		return
	}
	e.wal.Store(&walBox{w: w})
}

// walHook returns the attached WAL, or nil.
func (e *Engine) walHook() WAL {
	if b := e.wal.Load(); b != nil {
		return b.w
	}
	return nil
}

// Workers returns the execution capacity trials draw on: the scheduler's
// shard count, one worker each.
func (e *Engine) Workers() int { return e.sched.Shards() }

// Scheduler returns the execution plane trials run on.
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// Submit expands the experiment and starts running it under id. It
// fails with registry.ErrBadID for unusable ids, ErrExists for
// duplicates, and validation/expansion errors for bad specs.
func (e *Engine) Submit(id string, spec Spec) (*Experiment, error) {
	if err := registry.ValidateID(id); err != nil {
		return nil, err
	}
	trials, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	spec = spec.withDefaults()

	ctx, cancel := context.WithCancel(context.Background())
	x := &Experiment{
		id:      id,
		spec:    spec,
		created: time.Now(), //flowervet:allow wallclock(experiment creation timestamps are operator metadata)
		trials:  trials,
		bus:     e.bus,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  StatusRunning,
		results: make([]TrialSummary, len(trials)),
	}
	for i, t := range trials {
		x.results[i] = TrialSummary{Trial: t, Status: TrialPending}
	}

	e.mu.Lock()
	if _, dup := e.exps[id]; dup {
		e.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	// Durable before acknowledged, under e.mu after the duplicate check
	// — mirroring registry.Create — so the log's submit/delete order
	// matches the engine's and a WAL failure refuses the submission
	// with nothing registered and no trial queued.
	if w := e.walHook(); w != nil {
		if err := w.ExperimentSubmitted(id, spec); err != nil {
			e.mu.Unlock()
			cancel()
			return nil, fmt.Errorf("experiment %q: %w", id, err)
		}
	}
	e.exps[id] = x
	telExperiments.Inc()
	// Under e.mu, like Delete's event, so experiment.deleted can never
	// precede experiment.created for the same id on the stream.
	x.publishState(EventExperimentCreated)
	e.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(len(trials))
	for i := range trials {
		// onStop settles the trial if the scheduler abandons the job
		// between chunks (a plane closed out of order); the normal paths
		// all settle inside the chunk function itself.
		abandoned := func(i int) func(error) {
			return func(err error) {
				x.setStatus(i, TrialFailed, err)
				wg.Done()
			}
		}(i)
		if _, err := e.sched.Submit(fmt.Sprintf("exp/%s/%d", id, i), sched.ClassBatch, x.trialJob(ctx, i, &wg), abandoned); err != nil {
			// The scheduler is closing down; settle the trial here since
			// no worker ever will.
			x.setStatus(i, TrialFailed, err)
			wg.Done()
		}
	}
	// The supervisor settles the final status once every trial job has
	// finished, then releases the context.
	go func() {
		wg.Wait()
		x.mu.Lock()
		if ctx.Err() != nil {
			x.status = StatusCancelled
		} else {
			x.status = StatusCompleted
		}
		status := x.status
		x.mu.Unlock()
		// Best-effort finish record: recovery drops finished
		// experiments from the durable state (their results lived in
		// memory); a missed record only re-recovers this one as
		// interrupted.
		if w := e.walHook(); w != nil {
			_ = w.ExperimentFinished(id, status)
		}
		cancel()
		close(x.done)
		x.publishState(EventExperimentState)
	}()
	return x, nil
}

// Cancel durably cancels the experiment registered as id: the cancel is
// WAL-appended before the experiment's context is cut, so a degraded
// plane refuses it (the HTTP layer maps the error onto 503) rather than
// cancelling un-durably. Prefer this over Experiment.Cancel wherever
// the caller serves the control plane.
func (e *Engine) Cancel(id string) (*Experiment, error) {
	x, ok := e.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if w := e.walHook(); w != nil {
		if err := w.ExperimentCancelled(id); err != nil {
			return nil, fmt.Errorf("experiment %q: %w", id, err)
		}
	}
	x.Cancel()
	return x, nil
}

// Restore registers a crash-recovered experiment in the terminal
// StatusInterrupted state without running anything: the grid is
// re-expanded so the trial list is faithful, but every trial settles as
// cancelled (the original results lived in memory and died with the
// process). Used by persist's recovery; submit anew — or boot with
// -resume-experiments — to actually re-run the grid.
func (e *Engine) Restore(id string, spec Spec) (*Experiment, error) {
	if err := registry.ValidateID(id); err != nil {
		return nil, err
	}
	trials, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	spec = spec.withDefaults()

	_, cancel := context.WithCancel(context.Background())
	cancel() // settled on arrival: nothing may ever run
	x := &Experiment{
		id:      id,
		spec:    spec,
		created: time.Now(), //flowervet:allow wallclock(experiment creation timestamps are operator metadata)
		trials:  trials,
		bus:     e.bus,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  StatusInterrupted,
		results: make([]TrialSummary, len(trials)),
	}
	for i, t := range trials {
		x.results[i] = TrialSummary{Trial: t, Status: TrialCancelled, Error: "interrupted: process crashed mid-run"}
	}
	close(x.done)

	e.mu.Lock()
	if _, dup := e.exps[id]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	e.exps[id] = x
	x.publishState(EventExperimentCreated)
	e.mu.Unlock()
	return x, nil
}

// Get returns the experiment registered as id.
func (e *Engine) Get(id string) (*Experiment, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	x, ok := e.exps[id]
	return x, ok
}

// List returns all experiments sorted by id.
func (e *Engine) List() []*Experiment {
	e.mu.Lock()
	out := make([]*Experiment, 0, len(e.exps))
	for _, x := range e.exps {
		out = append(out, x)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Delete cancels the experiment and removes it from the store. Trials
// already simulating notice the cancellation at their next chunk
// boundary and exit harmlessly on the detached experiment. The delete
// is WAL-appended before anything is removed, so a degraded plane
// refuses it with the experiment intact.
func (e *Engine) Delete(id string) error {
	e.mu.Lock()
	x, ok := e.exps[id]
	if ok {
		if w := e.walHook(); w != nil {
			if err := w.ExperimentDeleted(id); err != nil {
				e.mu.Unlock()
				return fmt.Errorf("experiment %q: %w", id, err)
			}
		}
		delete(e.exps, id)
		x.publishState(EventExperimentDeleted)
	}
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	x.Cancel()
	return nil
}

// Close cancels every experiment, waits for all trials to settle, and —
// when the engine created its own scheduler (NewEngine) — drains and
// releases it, so a plain NewEngine leaks nothing. A shared scheduler
// (NewEngineOn) keeps running for its owner to close after every
// producer is quiet; submitting to a closed private engine fails its
// trials with the scheduler's ErrClosed.
func (e *Engine) Close() {
	for _, x := range e.List() {
		x.Cancel()
		<-x.done
	}
	if e.ownSched {
		e.sched.Close()
	}
}

// Experiment is one submitted experiment: its expanded trials, live
// per-trial results, and progress counters.
type Experiment struct {
	id      string
	spec    Spec
	created time.Time
	trials  []Trial
	bus     *eventbus.Bus // the owning engine's event bus (nil when built outside an engine)
	cancel  context.CancelFunc
	done    chan struct{}

	mu      sync.Mutex
	status  Status
	results []TrialSummary
	running int
	maxConc int
}

// ID returns the experiment's engine identifier.
func (x *Experiment) ID() string { return x.id }

// Spec returns the experiment definition (with defaults resolved).
func (x *Experiment) Spec() Spec { return x.spec }

// Created returns when the experiment was submitted (wall clock).
func (x *Experiment) Created() time.Time { return x.created }

// Trials returns the expanded grid in trial order.
func (x *Experiment) Trials() []Trial { return x.trials }

// Status returns the experiment's lifecycle state.
func (x *Experiment) Status() Status {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.status
}

// Cancel stops the experiment: trials are marked cancelled as the
// scheduler reaches their next chunk, so running trials stop at a chunk
// boundary and queued ones never simulate. Safe to call repeatedly.
func (x *Experiment) Cancel() { x.cancel() }

// Done returns a channel closed once every trial has settled and the
// final status is recorded.
func (x *Experiment) Done() <-chan struct{} { return x.done }

// Wait blocks until the experiment settles or ctx expires.
func (x *Experiment) Wait(ctx context.Context) error {
	select {
	case <-x.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// progressLocked counts the trials by state; x.mu must be held.
func (x *Experiment) progressLocked() Progress {
	p := Progress{Total: len(x.results), MaxConcurrent: x.maxConc}
	for i := range x.results {
		switch x.results[i].Status {
		case TrialPending:
			p.Pending++
		case TrialRunning:
			p.Running++
		case TrialDone:
			p.Done++
		case TrialFailed:
			p.Failed++
		case TrialCancelled:
			p.Cancelled++
		}
	}
	return p
}

// Progress counts the trials by state.
func (x *Experiment) Progress() Progress {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.progressLocked()
}

// Snapshot reads the status and progress under one lock acquisition, so
// the pair cannot contradict each other (a status of "completed" always
// comes with every trial counted in a terminal state).
func (x *Experiment) Snapshot() (Status, Progress) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.status, x.progressLocked()
}

// ResultsSnapshot reads status, progress and every trial's summary in
// one consistent cut, then computes aggregates outside the lock.
// Callable at any time — mid-run it reports the trials finished so far,
// and after a cancellation it still serves what completed before the
// cancel.
func (x *Experiment) ResultsSnapshot() (Status, Progress, Results) {
	x.mu.Lock()
	st := x.status
	p := x.progressLocked()
	trials := append([]TrialSummary(nil), x.results...)
	baseline := x.spec.Baseline
	x.mu.Unlock()
	return st, p, Results{Trials: trials, Aggregates: aggregate(trials, baseline)}
}

// Results snapshots every trial's summary plus aggregates over the
// completed ones.
func (x *Experiment) Results() Results {
	_, _, res := x.ResultsSnapshot()
	return res
}

// trialChunks splits a trial's duration so cancellation stays responsive
// and sibling jobs interleave: chunks are whole steps, at most
// maxTrialChunks per trial, and never more than maxChunkSim of simulated
// time — the chunk is the unit the scheduler's workers run without
// yielding, so its cost bounds how long a co-scheduled pacer tick can
// wait behind a trial.
const maxTrialChunks = 16

const maxChunkSim = 15 * time.Minute

// trialJob builds the chunked scheduler job driving trial i: the first
// chunk materialises the simulation, each following chunk advances it one
// slice, and the final chunk summarises. Returning false re-queues the
// job on the least-loaded shard, which is what interleaves trials and
// lets them migrate toward idle capacity. wg is decremented exactly once,
// when the trial settles in a terminal state.
func (x *Experiment) trialJob(ctx context.Context, i int, wg *sync.WaitGroup) sched.ChunkFunc {
	var (
		h         *sim.Harness
		res       sim.Result
		remaining time.Duration
		chunk     time.Duration
		start     time.Time
		started   bool
	)
	step := x.spec.Step.D()
	finish := func(st TrialStatus, err error) bool {
		x.setStatus(i, st, err)
		wg.Done()
		return true
	}
	return func() bool {
		if ctx.Err() != nil {
			return finish(TrialCancelled, nil)
		}
		if !started {
			started = true
			start = time.Now() //flowervet:allow wallclock(trial wall-clock cost reporting is the point of WallSeconds)
			x.markRunning(i, start)
			t := x.trials[i]
			var err error
			h, err = sim.New(t.Spec, sim.Options{Step: step, Seed: t.SimSeed})
			if err != nil {
				return finish(TrialFailed, err)
			}
			remaining = x.spec.Duration.D()
			chunk = remaining / maxTrialChunks
			if chunk > maxChunkSim {
				chunk = maxChunkSim
			}
			chunk = chunk / step * step
			if chunk < step {
				chunk = step
			}
			// Yield before the first simulation slice so a whole grid
			// reaches Running quickly and interleaves from the start.
			return false
		}
		d := chunk
		if d > remaining {
			d = remaining
		}
		var err error
		if res, err = h.Run(d); err != nil {
			return finish(TrialFailed, err)
		}
		remaining -= d
		if remaining > 0 {
			return false
		}

		sum := summarize(x.trials[i], h, res)
		sum.StartedAt = start
		sum.WallSeconds = time.Since(start).Seconds() //flowervet:allow wallclock(trial wall-clock cost reporting is the point of WallSeconds)

		x.mu.Lock()
		sum.Trial = x.results[i].Trial
		x.results[i] = sum
		x.running--
		x.mu.Unlock()
		telTrialsRunning.Dec()
		countTrialSettled(sum.Status)
		x.publishTrial(EventTrialFinished, i, sum.Status, &sum)
		wg.Done()
		return true
	}
}

// markRunning flips a trial to running and tracks the in-flight overlap.
func (x *Experiment) markRunning(i int, start time.Time) {
	x.mu.Lock()
	x.results[i].Status = TrialRunning
	x.results[i].StartedAt = start
	x.running++
	if x.running > x.maxConc {
		x.maxConc = x.running
	}
	x.mu.Unlock()
	telTrialsRunning.Inc()
	x.publishTrial(EventTrialStarted, i, TrialRunning, nil)
}

// setStatus settles a trial in a terminal non-done state.
func (x *Experiment) setStatus(i int, st TrialStatus, err error) {
	x.mu.Lock()
	if x.results[i].Status == TrialRunning {
		x.running--
		telTrialsRunning.Dec()
		if !x.results[i].StartedAt.IsZero() {
			//flowervet:allow wallclock(trial wall-clock cost reporting is the point of WallSeconds)
			x.results[i].WallSeconds = time.Since(x.results[i].StartedAt).Seconds()
		}
	}
	x.results[i].Status = st
	if err != nil {
		x.results[i].Error = err.Error()
	}
	sum := x.results[i]
	x.mu.Unlock()
	countTrialSettled(st)
	x.publishTrial(EventTrialFinished, i, st, &sum)
}
