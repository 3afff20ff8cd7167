// Package registry is the multi-flow heart of the v1 control plane: a
// concurrency-safe collection of named, independently-managed flows. Where
// the original HTTP server wrapped exactly one core.Manager behind one
// server-wide mutex, the registry gives every flow its own lock, so one
// daemon can create, advance, pace and delete many flows concurrently —
// the prerequisite for the ROADMAP's many-tenants north star.
//
// Pacing runs on the shared execution plane (internal/sched): StartPacing
// registers a periodic schedulable on the registry's scheduler instead of
// spawning a goroutine, so ten thousand paced flows cost ten thousand
// timer-wheel entries — not ten thousand goroutines — and flow advances
// are co-scheduled (and weighted-fairness-arbitrated) with the Scenario
// Lab's experiment trials when both share one scheduler.
package registry

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eventbus"
	"repro/internal/flow"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// WAL is the registry's durability hook: every control-plane mutation is
// appended — and made durable — through it *before* the mutation is
// applied and acknowledged. An append error aborts the mutation and is
// returned to the caller (the HTTP layer maps persist.ErrDegraded onto
// 503). The registry defines the interface rather than importing the
// persist package, so persist can depend on registry for recovery
// without a cycle; persist.ControlLog is the production implementation.
// Reads, advances and watch streams never touch the WAL: only mutations
// of control-plane *state* (what exists, how it is paced, how its
// controllers are tuned) are durable.
type WAL interface {
	FlowCreated(id string, spec flow.Spec, opts sim.Options) error
	// FlowPaced records a pacing change; pace 0 is a stop.
	FlowPaced(id string, pace float64, wallTick time.Duration) error
	// FlowTuned records a controller tuning; nil fields were untouched.
	FlowTuned(id string, kind flow.LayerKind, ref, deadBand *float64, window *time.Duration) error
	FlowDeleted(id string) error
}

// walBox wraps the WAL for atomic.Pointer publication: SetWAL is called
// once at boot after recovery, possibly while pacers already tick, so
// readers must not need a lock.
type walBox struct{ w WAL }

// Errors returned by registry operations; the HTTP layer maps them onto
// status codes (409, 404, 400).
var (
	ErrExists   = errors.New("flow already exists")
	ErrNotFound = errors.New("flow not found")
	ErrBadID    = errors.New("invalid flow id")
	ErrDeleted  = errors.New("flow deleted")
)

// maxAdvance bounds the simulated time one advance request or one pacer
// tick may cover: a simulated year.
const maxAdvance = 24 * 365 * time.Hour

// maxAdvanceSteps bounds the simulation steps one advance request or one
// pacer tick may run: maxAdvance at the default step (3,153,600). A flow
// with a finer step covers less simulated time per request, so no request
// holds the flow lock, and its shard's one worker, for more steps than a
// simulated year at the default step.
const maxAdvanceSteps = int64(maxAdvance / sim.DefaultStep)

// checkAdvance is the one bound on the simulation work a single advance
// request or pacer tick starts: simNS nanoseconds of simulated time over
// a simulation step of step. simNS is a float so that a pace × wall tick
// product too large or too small for a time.Duration is caught before
// any conversion to one.
func checkAdvance(simNS float64, step time.Duration) error {
	switch steps := simNS / float64(step); {
	case !(simNS >= 1): // also NaN
		return fmt.Errorf("advance of %g ns of simulated time is under 1 ns", simNS)
	case simNS > float64(maxAdvance):
		return fmt.Errorf("advance of %.4g s of simulated time exceeds %v", simNS/1e9, maxAdvance)
	case steps > float64(maxAdvanceSteps):
		return fmt.Errorf("advance of %.4g steps of %v exceeds %d", steps, step, maxAdvanceSteps)
	}
	return nil
}

// CheckPace reports whether a pacer moving pace simulated seconds per
// wall second, ticking every wallTick, on a flow whose simulation step is
// step, stays within the bounds of one advance per tick, and whether the
// scheduler can fire it every wallTick at all: its wheel fires no faster
// than sched.WheelTick, and catch-up delivers at most sched.MaxCatchUp
// intervals, so a finer wall tick would silently drop simulated time.
// StartPacing applies it; callers that must reject a pace before the flow
// exists apply it first.
func CheckPace(pace float64, wallTick, step time.Duration) error {
	if wallTick < sched.WheelTick {
		return fmt.Errorf("wall tick %v is under the scheduler's %v wheel tick", wallTick, sched.WheelTick)
	}
	return checkAdvance(pace*float64(wallTick), step)
}

// CheckAdvance reports whether one Advance(d) of f stays within the
// bounds of a single request.
func (f *Flow) CheckAdvance(d time.Duration) error {
	return checkAdvance(float64(d), f.step())
}

// step returns the flow's simulation step.
func (f *Flow) step() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mgr.Harness().Scheduler.Step()
}

// MaxIDLength bounds flow identifiers so they stay usable as URL path
// segments and log fields.
const MaxIDLength = 64

// ValidateID checks that id is non-empty, within length bounds, and made of
// URL-path-safe characters (letters, digits, '.', '_', '-').
func ValidateID(id string) error {
	if id == "" {
		return fmt.Errorf("%w: empty", ErrBadID)
	}
	if len(id) > MaxIDLength {
		return fmt.Errorf("%w: %q longer than %d bytes", ErrBadID, id, MaxIDLength)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("%w: %q contains %q (allowed: letters, digits, '.', '_', '-')", ErrBadID, id, r)
		}
	}
	return nil
}

// Flow is one registered flow: a core.Manager plus the lock that serialises
// all simulation access to it and the state of its optional pacer. Two
// different flows never contend on each other's locks.
type Flow struct {
	id      string
	created time.Time
	bus     *eventbus.Bus    // the owning registry's event bus (nil in tests that build flows directly)
	sched   *sched.Scheduler // the owning registry's execution plane (nil likewise)
	reg     *Registry        // the owning registry, for its WAL hook (nil likewise)
	opts    sim.Options      // the options the flow was materialised under (for checkpoints)

	// mu serialises every touch of mgr (the simulation harness is
	// single-threaded by design). deleting rides under it so Delete can
	// fence the flow: once set, Advance stops publishing, StartPacing
	// refuses (so no flow event follows flow.deleted on the bus) and a
	// checkpoint capture leaves the flow out (ViewLive).
	mu       sync.Mutex
	mgr      *core.Manager
	deleting bool

	// pacerMu guards the pacer fields below. It is separate from mu so
	// pacer lifecycle calls can wait on the scheduler ticket, whose tick
	// function itself acquires mu through Advance.
	pacerMu  sync.Mutex
	ticket   *sched.Ticket
	pace     float64
	wallTick time.Duration
	// pacerErr records why the last pacer died on its own (an Advance
	// failure); cleared when a new pacer starts.
	pacerErr error
}

// ID returns the flow's registry identifier.
func (f *Flow) ID() string { return f.id }

// Created returns when the flow was registered (wall clock).
func (f *Flow) Created() time.Time { return f.created }

// Options returns the sim.Options the flow was materialised under —
// what a checkpoint needs to re-create it faithfully.
func (f *Flow) Options() sim.Options { return f.opts }

// walHook returns the owning registry's WAL, or nil.
func (f *Flow) walHook() WAL {
	if f.reg == nil {
		return nil
	}
	return f.reg.walHook()
}

// View runs fn with exclusive access to the flow's manager. The manager and
// everything reachable from it (harness, store, loops) must only be touched
// inside fn.
func (f *Flow) View(fn func(m *core.Manager)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f.mgr)
}

// ViewLive is View unless Delete has logged the flow's removal, in which
// case it returns false without calling fn: what a checkpoint capture
// needs to leave out a flow whose delete its watermark covers.
func (f *Flow) ViewLive(fn func(m *core.Manager)) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.deleting {
		return false
	}
	fn(f.mgr)
	return true
}

// Advance runs the flow's simulation forward by d under the flow lock and
// publishes the advance — and every controller decision it produced — on
// the registry's event bus. Publication happens while f.mu is still held
// (the lock is deferred, so a panicking run — caught by the HTTP recovery
// middleware — cannot leak it): concurrent advances of the same flow thus
// publish in the same order they mutated the simulation, and watch
// consumers never see the tick counter move backwards. Publish never
// blocks (bounded subscriber buffers), so the flow lock is not held
// hostage to slow consumers. On a flow being deleted the simulation still
// runs (an advance in flight when Delete lands finishes harmlessly), but
// nothing is published: flow.deleted is final on the stream.
func (f *Flow) Advance(d time.Duration) (sim.Result, error) {
	tr := telemetry.Traces.Begin(f.id)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.advanceLocked(d, tr); err != nil {
		return sim.Result{}, err
	}
	return f.mgr.Harness().Result(), nil
}

// advance is the pacer's Advance: it has no use for the sim.Result and so
// does not pay for building one per tick.
func (f *Flow) advance(d time.Duration, tr *telemetry.Trace) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.advanceLocked(d, tr)
}

// advanceLocked is the body of both; f.mu must be held. tr, when non-nil,
// is the sampled trace begun for this advance before the lock was taken,
// and the stage marks (flow lock acquired, controller step done, event
// published) land here. All trace calls are nil-safe, so the untraced path
// pays nothing.
func (f *Flow) advanceLocked(d time.Duration, tr *telemetry.Trace) error {
	tr.Mark(telemetry.StageSchedFire)
	marks := markDecisions(f.mgr)
	h := f.mgr.Harness()
	err := h.Advance(d)
	tr.Mark(telemetry.StageController)
	if err != nil || f.deleting {
		telemetry.Traces.Abandon(tr)
		return err
	}
	seq := f.publishAdvance(d, h.Progress(), h.Clock.Now(), newDecisions(f.mgr, marks))
	telemetry.Traces.Publish(tr, seq)
	telAdvances.Inc()
	return nil
}

// StartPacing advances the flow continuously: every wallTick of wall time,
// the flow moves pace simulated seconds per wall second, within the
// bounds CheckPace sets on one tick. The pacer is a periodic job on the
// registry's scheduler — no goroutine or timer is owned by the flow —
// with the scheduler's bounded catch-up policy: a flow
// that cannot keep up (slow simulation, saturated workers) drops ticks and
// lags wall time instead of accumulating an unbounded advance backlog. A
// pacer already running is replaced. Safe to call concurrently with
// StopPacing.
func (f *Flow) StartPacing(pace float64, wallTick time.Duration) error {
	if pace <= 0 {
		return fmt.Errorf("pace %v must be positive", pace)
	}
	if f.sched == nil {
		return fmt.Errorf("flow %q has no scheduler (not registered through a registry)", f.id)
	}
	simStep := f.step()
	if err := CheckPace(pace, wallTick, simStep); err != nil {
		return err
	}

	f.pacerMu.Lock()
	defer f.pacerMu.Unlock()
	// Durability first: the pace change is appended to the WAL before
	// the old pacer is disturbed or the new one armed, so a WAL failure
	// (degraded plane) leaves the running state exactly as it was. A
	// record logged just before a racing Delete's fence is harmless:
	// replay ignores pace records for deleted flows.
	if w := f.walHook(); w != nil {
		if err := w.FlowPaced(f.id, pace, wallTick); err != nil {
			return err
		}
	}
	f.stopPacerLocked()
	// Re-read the delete fence now that pacerMu is held: Delete sets it
	// (under f.mu) strictly before draining the pacer under pacerMu, so a
	// fence observed false here guarantees a racing Delete has not passed
	// its StopPacing yet and will stop — and un-publish-order — whatever
	// is registered below. Checking before taking pacerMu would leave a
	// window for a whole Delete to slip through and an orphan pacer to
	// outlive its flow. (Taking f.mu under pacerMu is safe: no path holds
	// f.mu while acquiring pacerMu.)
	f.mu.Lock()
	deleting := f.deleting
	f.mu.Unlock()
	if deleting {
		return fmt.Errorf("%w: %q", ErrDeleted, f.id)
	}

	perWallTick := time.Duration(pace * float64(wallTick))
	var debt time.Duration // simulated time owed but not yet advanced
	var ticket *sched.Ticket
	tick := func(n int) error {
		// The scheduler advances in whole simulation steps, so carry
		// sub-step remainders forward instead of losing them. n > 1 means
		// the scheduler is catching this flow up after falling behind.
		telPaceTicks.Add(uint64(n))
		debt += time.Duration(n) * perWallTick
		if due := debt / simStep * simStep; due > 0 {
			debt -= due
			// Begin the (sampled) tick trace before taking the flow lock so
			// the sched_fire stage measures fire-to-lock latency.
			if err := f.advance(due, telemetry.Traces.Begin(f.id)); err != nil {
				return err
			}
		}
		return nil
	}
	onStop := func(err error) {
		// The pacer died on its own (an Advance failure). Clear the pacer
		// state if nobody has replaced it yet, and tell watch consumers
		// pacing stopped — StopPacing never ran, so nobody else will.
		// Published under pacerMu so it cannot interleave with a
		// concurrent StartPacing's event.
		f.pacerMu.Lock()
		defer f.pacerMu.Unlock()
		if f.ticket != ticket {
			return
		}
		f.ticket = nil
		f.pace, f.wallTick = 0, 0
		f.pacerErr = err
		telFlowsPacing.Dec()
		if f.bus != nil {
			f.bus.Publish(EventFlowPace, f.id, FlowPace{ID: f.id, Running: false, Error: err.Error()})
		}
	}
	t, err := f.sched.Periodic("flow/"+f.id, sched.ClassFlow, wallTick, tick, onStop)
	if err != nil {
		return fmt.Errorf("pace flow %q: %w", f.id, err)
	}
	// onStop reads `ticket` under pacerMu, which this call still holds, so
	// the assignment is visible before any callback can observe it.
	ticket = t
	f.ticket = t
	f.pace, f.wallTick = pace, wallTick
	f.pacerErr = nil
	telFlowsPacing.Inc()
	if f.bus != nil {
		f.bus.Publish(EventFlowPace, f.id, FlowPace{ID: f.id, Running: true, Pace: pace})
	}
	return nil
}

// StopPacing halts the flow's pacer, if any, and waits for any in-flight
// pacer tick to finish: after it returns, the pacer will never advance the
// flow or publish again. The pace event is published under pacerMu, like
// StartPacing's, so the stream's pace events appear in the order the
// transitions happened. Stopping a flow that is not pacing is a no-op.
// Like every control-plane mutation, the stop is WAL-appended before it
// is applied; a degraded WAL refuses it and the pacer keeps running.
func (f *Flow) StopPacing() error {
	f.pacerMu.Lock()
	defer f.pacerMu.Unlock()
	if f.ticket == nil {
		return nil // nothing running: no state change to make durable
	}
	if w := f.walHook(); w != nil {
		if err := w.FlowPaced(f.id, 0, 0); err != nil {
			return err
		}
	}
	f.stopPacerLocked()
	if f.bus != nil {
		f.bus.Publish(EventFlowPace, f.id, FlowPace{ID: f.id, Running: false})
	}
	return nil
}

// stopPacingQuiet stops the pacer without a WAL append: Delete's record
// subsumes the stop, and Close is a process shutdown, not a mutation —
// a paced flow must still be paced after recovery. The stop event is
// still published for live watchers.
func (f *Flow) stopPacingQuiet() {
	f.pacerMu.Lock()
	defer f.pacerMu.Unlock()
	had := f.ticket != nil
	f.stopPacerLocked()
	if had && f.bus != nil {
		f.bus.Publish(EventFlowPace, f.id, FlowPace{ID: f.id, Running: false})
	}
}

// stopPacerLocked clears the pacer state and stops the scheduler job,
// waiting for an in-flight tick; pacerMu must be held. The ticket-swap
// under pacerMu guarantees exactly one caller retires a given pacer.
func (f *Flow) stopPacerLocked() {
	t := f.ticket
	f.ticket = nil
	f.pace, f.wallTick = 0, 0
	if t != nil {
		t.Stop()
		telFlowsPacing.Dec()
	}
}

// Pacing reports whether a pacer is running and at what pace.
func (f *Flow) Pacing() (pace float64, wallTick time.Duration, running bool) {
	f.pacerMu.Lock()
	defer f.pacerMu.Unlock()
	return f.pace, f.wallTick, f.ticket != nil
}

// PaceError returns why the last pacer died on its own (an Advance
// failure), or nil. Starting a new pacer clears it.
func (f *Flow) PaceError() error {
	f.pacerMu.Lock()
	defer f.pacerMu.Unlock()
	return f.pacerErr
}

// Tune atomically updates the controller parameters of one layer's loop;
// nil arguments leave that parameter unchanged. It reports whether the
// layer has a controller at all (found false: nothing to tune), and —
// because a tuning is control-plane state that must survive a restart —
// appends the change to the WAL before applying it: a degraded WAL
// refuses the tune with the loop untouched. Callers validate ranges
// before calling; the registry only orders durability against
// application.
func (f *Flow) Tune(kind flow.LayerKind, ref, deadBand *float64, window *time.Duration) (found bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	loop, ok := f.mgr.Harness().Loops[kind]
	if !ok {
		return false, nil
	}
	if ref == nil && deadBand == nil && window == nil {
		return true, nil // nothing changes: nothing to log
	}
	if w := f.walHook(); w != nil {
		if err := w.FlowTuned(f.id, kind, ref, deadBand, window); err != nil {
			return true, err
		}
	}
	if ref != nil {
		loop.SetRef(*ref)
	}
	if window != nil {
		loop.SetWindow(*window)
	}
	if deadBand != nil {
		loop.SetDeadBand(*deadBand)
	}
	return true, nil
}

// Registry is a concurrency-safe collection of named flows sharing one
// execution plane.
type Registry struct {
	mu       sync.RWMutex
	flows    map[string]*Flow
	ordered  []*Flow // flows' values in id order, updated with flows under mu
	bus      *eventbus.Bus
	sched    *sched.Scheduler
	ownSched bool // New created the scheduler, so Close releases it

	// wal, once set, makes every mutation durable-before-acknowledged.
	// Atomic (not under mu) because boot attaches it after recovery
	// replay while recovered pacers may already be ticking.
	wal atomic.Pointer[walBox]
}

// Option configures a Registry.
type Option func(*Registry)

// WithScheduler runs the registry's pacers on s instead of a private
// scheduler — the unified-execution-plane wiring: hand the same scheduler
// to the registry and the lab engine and one capacity knob governs both.
// The caller owns s's lifecycle (the registry never closes it).
func WithScheduler(s *sched.Scheduler) Option {
	return func(r *Registry) { r.sched = s }
}

// New returns an empty registry. Without WithScheduler it creates a
// private default-sized scheduler for its pacers.
func New(opts ...Option) *Registry {
	r := &Registry{flows: make(map[string]*Flow), bus: eventbus.New(0)}
	for _, o := range opts {
		o(r)
	}
	if r.sched == nil {
		r.sched = sched.New(sched.Config{})
		r.ownSched = true
	}
	return r
}

// Scheduler returns the execution plane the registry's pacers run on.
func (r *Registry) Scheduler() *sched.Scheduler { return r.sched }

// SetWAL attaches the durability hook: from now on every mutation
// (create, pace, tune, delete) is appended to w before it is applied.
// Attach after recovery replay — replaying through a registry with the
// WAL already attached would re-log every record. Passing nil detaches.
func (r *Registry) SetWAL(w WAL) {
	if w == nil {
		r.wal.Store(nil)
		return
	}
	r.wal.Store(&walBox{w: w})
}

// walHook returns the attached WAL, or nil.
func (r *Registry) walHook() WAL {
	if b := r.wal.Load(); b != nil {
		return b.w
	}
	return nil
}

// Create materialises spec under opts and registers it as id. It fails with
// ErrBadID for unusable ids, ErrExists for duplicates, and passes through
// materialisation errors (invalid specs).
func (r *Registry) Create(id string, spec flow.Spec, opts sim.Options) (*Flow, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	// Materialise outside the registry lock: sim.New is the expensive part
	// and must not serialise unrelated creates.
	mgr, err := core.NewManager(spec, opts)
	if err != nil {
		return nil, err
	}
	//flowervet:allow wallclock(flow creation timestamps are operator metadata, not simulation state)
	f := &Flow{id: id, created: time.Now(), bus: r.bus, sched: r.sched, reg: r, opts: opts, mgr: mgr}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.flows[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, id)
	}
	// Durable before acknowledged: the create is WAL-appended under r.mu
	// — after the duplicate check, before the map insert — so the log's
	// create/delete order for one id matches the registry's, and a WAL
	// failure refuses the create with nothing registered.
	if w := r.walHook(); w != nil {
		if err := w.FlowCreated(id, spec, opts); err != nil {
			return nil, fmt.Errorf("flow %q: %w", id, err)
		}
	}
	r.flows[id] = f
	r.ordered = slices.Insert(r.ordered, r.orderedIndex(id), f)
	telFlows.Inc()
	telFlowsCreated.Inc()
	// Published under r.mu, like Delete's event: watch consumers must
	// never see flow.deleted precede flow.created for the same id.
	r.bus.Publish(EventFlowCreated, id, FlowLifecycle{ID: id, Name: spec.Name})
	return f, nil
}

// Get returns the flow registered as id.
func (r *Registry) Get(id string) (*Flow, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.flows[id]
	return f, ok
}

// List returns all flows sorted by id.
func (r *Registry) List() []*Flow {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append(make([]*Flow, 0, len(r.ordered)), r.ordered...)
}

// orderedIndex returns where id sits, or would be inserted, in r.ordered;
// r.mu must be held.
func (r *Registry) orderedIndex(id string) int {
	i, _ := slices.BinarySearchFunc(r.ordered, id, func(f *Flow, id string) int { return strings.Compare(f.id, id) })
	return i
}

// Len returns the number of registered flows.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.flows)
}

// Delete stops the flow's pacer and removes it from the registry, in an
// order that makes flow.deleted final on the event stream: first the flow
// is fenced (advances stop publishing, new pacers are refused), then the
// pacer is stopped and drained, and only then is flow.deleted published —
// so no flow.pace or flow.advanced can trail it. An Advance already in
// flight when the fence lands finishes on the detached flow harmlessly,
// publishing nothing.
func (r *Registry) Delete(id string) error {
	r.mu.RLock()
	f, ok := r.flows[id]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}

	// Durable before destructive: the delete is WAL-appended before the
	// fence lands, so a WAL failure refuses the delete with the flow
	// fully intact. (Two racing Deletes may both append; replaying a
	// delete of an absent flow is a no-op.) Append and fence share one
	// f.mu section, so a checkpoint capture, which reads the fence under
	// f.mu after taking its watermark, leaves out any flow whose delete
	// that watermark covers. Any Advance already holding f.mu publishes
	// before the fence; every later one sees it.
	f.mu.Lock()
	if w := r.walHook(); w != nil {
		if err := w.FlowDeleted(id); err != nil {
			f.mu.Unlock()
			return fmt.Errorf("flow %q: %w", id, err)
		}
	}
	f.deleting = true
	f.mu.Unlock()

	// Quiet stop: the delete record subsumes the pace stop in the log.
	f.stopPacingQuiet() // waits for an in-flight pacer tick; publishes the stop

	r.mu.Lock()
	if _, still := r.flows[id]; !still {
		// A concurrent Delete got here first and already published.
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(r.flows, id)
	i := r.orderedIndex(id)
	r.ordered = slices.Delete(r.ordered, i, i+1)
	telFlows.Dec()
	telFlowsDeleted.Inc()
	// Under r.mu, so the lifecycle order matches the map's: created before
	// deleted, always.
	r.bus.Publish(EventFlowDeleted, id, FlowLifecycle{ID: id})
	r.mu.Unlock()
	return nil
}

// Close stops every flow's pacer and, when the registry created its own
// scheduler (no WithScheduler), drains and releases it — so a registry
// built with plain New leaks nothing. A shared scheduler is left running
// for its owner to close after every producer is quiet. Flows remain
// readable after Close; pacing a privately-scheduled registry again
// fails with the scheduler's ErrClosed.
func (r *Registry) Close() {
	for _, f := range r.List() {
		// Quiet: shutdown is not a mutation — a flow paced at crash or
		// shutdown must come back paced after recovery.
		f.stopPacingQuiet()
	}
	if r.ownSched {
		r.sched.Close()
	}
}
