// Package lab is Flower's Scenario Lab: a declarative experiment farm
// that turns the hand-written serial evaluation programs of examples/
// into first-class, parallel, cancellable experiments.
//
// An experiment (Spec) names a grid of variants — workload patterns ×
// controller/planner knob sets × initial-allocation plans × seeds — over
// one base flow definition. Expansion crosses the axes into trials, each
// a fully materialised flow.Spec with a deterministic RNG seed derived
// via randx.DeriveSeed, so re-running the same experiment reproduces the
// same numbers trial for trial. The Engine executes trials on a bounded
// worker pool (one goroutine per trial, gated by a semaphore), tracks
// progress, supports cancellation mid-run, and keeps an in-memory
// results store with per-trial summaries (cost, violation rate,
// utilisation) plus cross-trial aggregates (best/worst, Pareto front via
// nsga2.NonDominated, baseline deltas).
//
// The subsystem is exposed end to end: /v1/experiments in
// internal/httpapi, wire types in api/v1, methods in repro/client, and
// the `flowctl experiments` subcommand. It is also the one path the
// paper's simulated artefacts run on: internal/exper reduces each
// artefact's grid results (among them the per-trial workload-dependency
// fit and settle time) to the numbers the paper reports.
package lab

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/flow"
	"repro/internal/randx"
)

// MaxTrials bounds one experiment's grid so a typo'd axis cannot ask one
// daemon for millions of simulations.
const MaxTrials = 1024

// WorkloadVariant is one point on the workload axis: a named generator
// pattern substituted for the base flow's workload.
type WorkloadVariant struct {
	Name     string            `json:"name"`
	Workload flow.WorkloadSpec `json:"workload"`
}

// ControllerVariant is one point on the controller axis: named
// per-layer controller overrides (the demo's "adjust parameters of the
// controllers" knob sets). Layers absent from the map keep the base
// spec's controller. The flow.StorageReads key targets the dashboard's
// read-capacity controller.
type ControllerVariant struct {
	Name   string                                 `json:"name"`
	Layers map[flow.LayerKind]flow.ControllerSpec `json:"layers,omitempty"`
}

// AllocationVariant is one point on the allocation axis: named initial
// allocations per layer, the shape the §3.2 share analyzer's Pareto
// plans take when fed back into the farm. Layers absent from the map
// keep the base spec's initial allocation.
type AllocationVariant struct {
	Name    string                     `json:"name"`
	Initial map[flow.LayerKind]float64 `json:"initial"`
}

// Spec is a declarative experiment: one base flow crossed with variant
// axes. Empty axes contribute a single pass-through point, so the
// minimal experiment (all axes empty, one seed) is one trial of the base
// flow.
type Spec struct {
	// Name labels the experiment (and is the default registry id).
	Name string `json:"name"`
	// Base is the flow definition the variants mutate; nil selects the
	// built-in click-stream flow at Peak records/s.
	Base *flow.Spec `json:"base,omitempty"`
	// Peak sizes the built-in flow when Base is nil (default 3000).
	Peak float64 `json:"peak,omitempty"`
	// Duration is the simulated time each trial runs (required).
	Duration flow.Duration `json:"duration"`
	// Step is the simulation tick (default 10s).
	Step flow.Duration `json:"step,omitempty"`
	// Seeds is the replicate axis: one trial per seed per grid point
	// (default [0]). Every trial's simulation seed is derived from its
	// seed and grid coordinates, so replicates are decorrelated but
	// reproducible.
	Seeds []int64 `json:"seeds,omitempty"`

	// The grid axes.
	Workloads   []WorkloadVariant   `json:"workloads,omitempty"`
	Controllers []ControllerVariant `json:"controllers,omitempty"`
	Allocations []AllocationVariant `json:"allocations,omitempty"`

	// Baseline optionally names the trial the aggregates compute deltas
	// against (default: the first trial).
	Baseline string `json:"baseline,omitempty"`
}

// Trial is one expanded grid point: a materialised flow spec plus the
// variant names that produced it.
type Trial struct {
	Index int `json:"index"`
	// Name is the slash-joined variant path, e.g. "spike/adaptive/s1".
	Name string `json:"name"`
	// Workload, Controller and Allocation name the variants this trial
	// was built from (empty for a pass-through axis).
	Workload   string `json:"workload,omitempty"`
	Controller string `json:"controller,omitempty"`
	Allocation string `json:"allocation,omitempty"`
	// Seed is the replicate seed; SimSeed the derived simulation seed,
	// shared by the controller variants of one grid point.
	Seed    int64 `json:"seed"`
	SimSeed int64 `json:"sim_seed"`

	// Spec is the trial's materialised flow definition. It is not
	// serialised: trial payloads stay small, and the spec is a pure
	// function of the experiment spec and the trial coordinates.
	Spec flow.Spec `json:"-"`
}

// withDefaults resolves the spec's optional fields.
func (s Spec) withDefaults() Spec {
	if s.Peak <= 0 {
		s.Peak = 3000
	}
	if s.Step.D() <= 0 {
		s.Step = flow.Duration(10 * time.Second)
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{0}
	}
	return s
}

// Validate checks the experiment is well-formed without expanding it.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("lab: experiment name is required")
	}
	if s.Duration.D() <= 0 {
		return fmt.Errorf("lab: experiment duration must be positive")
	}
	if s.Step.D() < 0 {
		return fmt.Errorf("lab: step must be non-negative")
	}
	// A duration shorter than one step runs zero ticks: the trial would
	// report cost 0 / violations 0 and Pareto-dominate every real one.
	if step := s.withDefaults().Step.D(); s.Duration.D() < step {
		return fmt.Errorf("lab: duration %v is shorter than the %v simulation step — trials would run zero ticks",
			s.Duration.D(), step)
	}
	if s.Base != nil {
		if err := s.Base.Validate(); err != nil {
			return fmt.Errorf("lab: base flow: %w", err)
		}
	}
	if err := uniqueNames("workload", len(s.Workloads), func(i int) string { return s.Workloads[i].Name }); err != nil {
		return err
	}
	if err := uniqueNames("controller", len(s.Controllers), func(i int) string { return s.Controllers[i].Name }); err != nil {
		return err
	}
	if err := uniqueNames("allocation", len(s.Allocations), func(i int) string { return s.Allocations[i].Name }); err != nil {
		return err
	}
	// A variant keyed by a layer the flow doesn't have would silently
	// run the unmodified base flow while reporting a distinct variant.
	for _, c := range s.Controllers {
		for kind := range c.Layers {
			switch kind {
			case flow.Ingestion, flow.Analytics, flow.Storage, flow.StorageReads:
			default:
				return fmt.Errorf("lab: controller variant %q targets unknown layer %q", c.Name, kind)
			}
		}
	}
	for _, a := range s.Allocations {
		for kind := range a.Initial {
			switch kind {
			case flow.Ingestion, flow.Analytics, flow.Storage:
			default:
				return fmt.Errorf("lab: allocation variant %q targets unknown layer %q", a.Name, kind)
			}
		}
	}
	seeds := make(map[int64]bool, len(s.Seeds))
	for _, seed := range s.Seeds {
		if seeds[seed] {
			return fmt.Errorf("lab: duplicate seed %d — replicates would be byte-identical", seed)
		}
		seeds[seed] = true
	}
	if s.TrialCount() > MaxTrials {
		return fmt.Errorf("lab: grid expands to more than the %d-trial limit", MaxTrials)
	}
	if s.Baseline != "" && !s.hasTrialNamed(s.Baseline) {
		return fmt.Errorf("lab: baseline %q names no trial of the grid", s.Baseline)
	}
	return nil
}

// hasTrialNamed reports whether the grid expands to a trial with the
// given name, walking the name grid without materialising specs.
func (s Spec) hasTrialNamed(name string) bool {
	s = s.withDefaults()
	axis := func(names []string) []string {
		if len(names) == 0 {
			return []string{""}
		}
		return names
	}
	var w, c, a []string
	for _, v := range s.Workloads {
		w = append(w, v.Name)
	}
	for _, v := range s.Controllers {
		c = append(c, v.Name)
	}
	for _, v := range s.Allocations {
		a = append(a, v.Name)
	}
	for _, wn := range axis(w) {
		for _, cn := range axis(c) {
			for _, an := range axis(a) {
				for si := range s.Seeds {
					if trialName(wn, cn, an, si, len(s.Seeds)) == name {
						return true
					}
				}
			}
		}
	}
	return false
}

// uniqueNames requires every axis point to be named, uniquely and
// without the '/' separator, so the slash-joined trial names (and the
// Baseline reference) are unambiguous.
func uniqueNames(axis string, n int, name func(int) string) error {
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		v := name(i)
		if v == "" {
			return fmt.Errorf("lab: %s variant %d has no name", axis, i)
		}
		if strings.ContainsRune(v, '/') {
			return fmt.Errorf("lab: %s variant %q contains '/', the trial-name separator", axis, v)
		}
		if seen[v] {
			return fmt.Errorf("lab: duplicate %s variant %q", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// TrialCount returns the size of the expanded grid, saturating at
// MaxTrials+1: beyond the cap the exact count no longer matters, and
// saturating keeps the product from overflowing int on absurd axis
// lengths (which would otherwise slip past the cap check as a negative
// number).
func (s Spec) TrialCount() int {
	s = s.withDefaults()
	n := len(s.Seeds)
	for _, axis := range []int{len(s.Workloads), len(s.Controllers), len(s.Allocations)} {
		if n > MaxTrials {
			return MaxTrials + 1
		}
		if axis > 0 {
			n *= axis
		}
	}
	if n > MaxTrials {
		return MaxTrials + 1
	}
	return n
}

// baseSpec resolves the flow definition the variants mutate.
func (s Spec) baseSpec() (flow.Spec, error) {
	if s.Base != nil {
		return *s.Base, nil
	}
	return flow.DefaultClickstream(s.Peak)
}

// Expand crosses the axes into the full trial list. Every trial's spec
// is validated, so an axis point that mutates the base flow into an
// invalid definition fails the whole experiment up front rather than at
// run time.
func (s Spec) Expand() ([]Trial, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.withDefaults()
	base, err := s.baseSpec()
	if err != nil {
		return nil, fmt.Errorf("lab: base flow: %w", err)
	}

	// A nil axis still contributes one pass-through point.
	workloads := s.Workloads
	if len(workloads) == 0 {
		workloads = []WorkloadVariant{{}}
	}
	controllers := s.Controllers
	if len(controllers) == 0 {
		controllers = []ControllerVariant{{}}
	}
	allocations := s.Allocations
	if len(allocations) == 0 {
		allocations = []AllocationVariant{{}}
	}

	trials := make([]Trial, 0, s.TrialCount())
	for wi, w := range workloads {
		for _, c := range controllers {
			for ai, a := range allocations {
				for si, seed := range s.Seeds {
					spec := base
					spec.Layers = append([]flow.LayerSpec(nil), base.Layers...)
					if w.Name != "" {
						spec.Workload = w.Workload
					}
					for li := range spec.Layers {
						kind := spec.Layers[li].Kind
						if c.Layers != nil {
							if ctrl, ok := c.Layers[kind]; ok {
								spec.Layers[li].Controller = ctrl
							}
						}
						if a.Initial != nil {
							if init, ok := a.Initial[kind]; ok {
								spec.Layers[li].Initial = init
							}
						}
					}
					if c.Layers != nil {
						if ctrl, ok := c.Layers[flow.StorageReads]; ok {
							if !spec.Dashboard.Enabled {
								return nil, fmt.Errorf("lab: controller variant %q targets %s, but the flow has no dashboard read workload",
									c.Name, flow.StorageReads)
							}
							spec.Dashboard.Controller = ctrl
						}
					}
					if err := spec.Validate(); err != nil {
						return nil, fmt.Errorf("lab: trial %s: %w",
							trialName(w.Name, c.Name, a.Name, si, len(s.Seeds)), err)
					}
					trials = append(trials, Trial{
						Index:      len(trials),
						Name:       trialName(w.Name, c.Name, a.Name, si, len(s.Seeds)),
						Workload:   w.Name,
						Controller: c.Name,
						Allocation: a.Name,
						Seed:       seed,
						// Controller variants share the noise draw of their
						// (workload, allocation, seed) point, so a row
						// difference is the controller's alone: the
						// controller coordinate is fixed at 0.
						SimSeed: randx.DeriveSeed(seed, int64(wi), 0, int64(ai)),
						Spec:    spec,
					})
				}
			}
		}
	}
	return trials, nil
}

// trialName joins the variant names into a stable, human-readable trial
// identifier; the seed suffix appears only when the experiment has
// several replicates.
func trialName(workload, controller, allocation string, seedIdx, seeds int) string {
	name := ""
	for _, part := range []string{workload, controller, allocation} {
		if part == "" {
			continue
		}
		if name != "" {
			name += "/"
		}
		name += part
	}
	if seeds > 1 {
		if name != "" {
			name += "/"
		}
		name += fmt.Sprintf("s%d", seedIdx)
	}
	if name == "" {
		name = "base"
	}
	return name
}
