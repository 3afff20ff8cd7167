// Package flow defines the declarative model of a managed data analytics
// flow: the three layers, their simulated systems, resources, controllers
// and workload. It is the programmatic equivalent of the demo's Flow
// Builder ("drag and drop multiple platforms and create a data analytics
// flow", §4 step 1) and Flow Configuration Wizard ("configure the
// controllers with information such as resource name, desired reference
// value, and monitoring period", §4 step 2).
//
// Specs marshal to and from JSON so cmd/flowctl can persist and validate
// flow definitions, and the simulation harness (internal/sim) materialises
// a Spec into live substrates.
package flow

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/billing"
	"repro/internal/workload"
)

// LayerKind identifies one of the three layers of a flow.
type LayerKind string

// The three layers (§1): every flow has exactly one of each.
const (
	Ingestion LayerKind = "ingestion"
	Analytics LayerKind = "analytics"
	Storage   LayerKind = "storage"
)

// StorageReads labels the storage layer's second elastic resource — read
// capacity, controlled when DashboardSpec is enabled. It is a reporting
// key (violations, actions, utilisation), not a fourth layer: a Spec still
// has exactly the three layers above.
const StorageReads LayerKind = "storage-reads"

// ControllerType selects the provisioning policy for a layer.
type ControllerType string

// Available controllers (§3.3 and baselines).
const (
	ControllerNone          ControllerType = "none"           // static allocation
	ControllerAdaptive      ControllerType = "adaptive"       // the paper's Eq. 6–7
	ControllerMemoryless    ControllerType = "adaptive-nomem" // ablation: Eq. 6–7 without gain memory
	ControllerFixedGain     ControllerType = "fixed-gain"     // Lim et al. [12]
	ControllerQuasiAdaptive ControllerType = "quasi-adaptive" // Padala et al. [14]
	ControllerRule          ControllerType = "rule"           // provider-style thresholds [1]
)

// ControllerSpec is the wizard's per-layer controller configuration.
type ControllerSpec struct {
	Type ControllerType `json:"type"`
	// Ref is the desired reference sensor value yr (percent utilisation).
	Ref float64 `json:"ref"`
	// Window is the monitoring window / control period.
	Window Duration `json:"window"`
	// DeadBand suppresses actions for |error| below it.
	DeadBand float64 `json:"dead_band,omitempty"`

	// Adaptive (Eq. 6–7) parameters.
	L0    float64 `json:"l0,omitempty"`
	Gamma float64 `json:"gamma,omitempty"`
	LMin  float64 `json:"l_min,omitempty"`
	LMax  float64 `json:"l_max,omitempty"`

	// FixedGain parameter.
	L float64 `json:"l,omitempty"`

	// QuasiAdaptive parameter.
	Forgetting float64 `json:"forgetting,omitempty"`

	// Rule parameters.
	High       float64 `json:"high,omitempty"`
	Low        float64 `json:"low,omitempty"`
	UpFactor   float64 `json:"up_factor,omitempty"`
	DownFactor float64 `json:"down_factor,omitempty"`
	Cooldown   int     `json:"cooldown,omitempty"`
}

// LayerSpec configures one layer of the flow.
type LayerSpec struct {
	Kind LayerKind `json:"kind"`
	// System is the display name of the simulated platform (e.g.
	// "kinesis-sim", "storm-sim", "dynamodb-sim").
	System string `json:"system"`
	// Resource is the elastic resource's display name ("shards", "vms",
	// "wcu").
	Resource string `json:"resource"`
	// Initial, Min and Max bound the allocation.
	Initial float64 `json:"initial"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`

	Controller ControllerSpec `json:"controller"`

	// Analytics-layer tuning (ignored elsewhere).
	VMCapacityMsPerSec float64  `json:"vm_capacity_ms_per_sec,omitempty"`
	ProvisionDelay     Duration `json:"provision_delay,omitempty"`
	CPUNoiseStd        float64  `json:"cpu_noise_std,omitempty"`
	BaseCPUPct         float64  `json:"base_cpu_pct,omitempty"`

	// Storage-layer tuning (ignored elsewhere).
	RCU float64 `json:"rcu,omitempty"`
	// Partitions enables the storage hot-partition model (see
	// internal/kvstore); zero or one keeps a single throughput pool.
	Partitions int `json:"partitions,omitempty"`
}

// The simulator allocates per shard and per partition, so a spec may not
// ask for more than these: a create request cannot make the daemon
// allocate without bound.
const (
	// maxShards bounds an ingestion layer's Max. Each shard costs about
	// 100 B (header, slice slot, id), allocated again on every resize.
	maxShards = 10_000
	// maxPartitions bounds a storage layer's Partitions, 32 B of per-tick
	// accounting each.
	maxPartitions = 10_000
)

// WorkloadSpec selects a generator pattern by name with parameters, so the
// whole flow definition stays JSON-serialisable.
type WorkloadSpec struct {
	// Pattern is one of "constant", "step", "ramp", "sine", "diurnal",
	// "spike" (diurnal base with a flash crowd).
	Pattern string `json:"pattern"`
	// Base/Peak interpretation depends on the pattern; see ToPattern.
	Base float64 `json:"base"`
	Peak float64 `json:"peak,omitempty"`
	// At and Length position steps, ramps and spikes.
	At     Duration `json:"at,omitempty"`
	Length Duration `json:"length,omitempty"`
	// Period drives sine and diurnal cycles.
	Period Duration `json:"period,omitempty"`
	// Factor multiplies the base during a spike.
	Factor float64 `json:"factor,omitempty"`
	// Poisson selects stochastic arrivals.
	Poisson bool `json:"poisson,omitempty"`
	// Seed drives the generator RNG.
	Seed int64 `json:"seed,omitempty"`
}

// ToPattern materialises the spec into a workload pattern.
func (w WorkloadSpec) ToPattern() (workload.Pattern, error) {
	switch w.Pattern {
	case "constant":
		return workload.Constant(w.Base), nil
	case "step":
		return workload.Step{Before: w.Base, After: w.Peak, At: w.At.D()}, nil
	case "ramp":
		return workload.Ramp{From: w.Base, To: w.Peak, Start: w.At.D(), Length: w.Length.D()}, nil
	case "sine":
		return workload.Sine{Base: w.Base, Amplitude: w.Peak - w.Base, Period: w.Period.D()}, nil
	case "diurnal":
		return workload.Diurnal{Floor: w.Base, Peak: w.Peak, Day: w.Period.D()}, nil
	case "spike":
		factor := w.Factor
		if factor <= 0 {
			factor = 3
		}
		return workload.Spike{
			Base:   workload.Diurnal{Floor: w.Base, Peak: w.Peak, Day: w.Period.D()},
			At:     w.At.D(),
			Length: w.Length.D(),
			Factor: factor,
		}, nil
	default:
		return nil, fmt.Errorf("flow: unknown workload pattern %q", w.Pattern)
	}
}

// DashboardSpec models the read side of the reference click-stream
// architecture [7]: a real-time dashboard querying the storage layer's
// aggregated results. Enabling it gives the storage layer its second
// elastic resource — read capacity units — with its own control loop,
// completing the paper's "DynamoDB read/write units" sensor/actuator
// surface (§2).
type DashboardSpec struct {
	Enabled bool `json:"enabled,omitempty"`
	// Workload is the query-rate pattern (queries/second).
	Workload WorkloadSpec `json:"workload"`
	// ItemBytes is the average read size (default 1024; one strongly
	// consistent read of up to 4 KiB costs one RCU).
	ItemBytes int `json:"item_bytes,omitempty"`
	// InitialRCU, MinRCU and MaxRCU bound the read-capacity allocation.
	InitialRCU float64 `json:"initial_rcu"`
	MinRCU     float64 `json:"min_rcu"`
	MaxRCU     float64 `json:"max_rcu"`
	// Controller drives the read-capacity loop.
	Controller ControllerSpec `json:"controller"`
}

// Spec is a complete flow definition.
type Spec struct {
	Name     string            `json:"name"`
	Layers   []LayerSpec       `json:"layers"`
	Workload WorkloadSpec      `json:"workload"`
	Prices   billing.PriceBook `json:"prices"`
	// BudgetPerHour is the Eq. 4 budget used by the share analyzer.
	BudgetPerHour float64 `json:"budget_per_hour,omitempty"`
	// Dashboard optionally attaches the read-side query workload and its
	// read-capacity controller to the storage layer.
	Dashboard DashboardSpec `json:"dashboard,omitempty"`
}

// Layer returns the layer of the given kind.
func (s Spec) Layer(kind LayerKind) (LayerSpec, bool) {
	for _, l := range s.Layers {
		if l.Kind == kind {
			return l, true
		}
	}
	return LayerSpec{}, false
}

// Validate checks the spec is complete and internally consistent.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("flow: name is required")
	}
	seen := map[LayerKind]bool{}
	for _, l := range s.Layers {
		switch l.Kind {
		case Ingestion, Analytics, Storage:
		default:
			return fmt.Errorf("flow: unknown layer kind %q", l.Kind)
		}
		if seen[l.Kind] {
			return fmt.Errorf("flow: duplicate %s layer", l.Kind)
		}
		seen[l.Kind] = true
		if l.System == "" || l.Resource == "" {
			return fmt.Errorf("flow: %s layer needs system and resource names", l.Kind)
		}
		if l.Min <= 0 || l.Min > l.Max {
			return fmt.Errorf("flow: %s layer allocation range [%v, %v] invalid", l.Kind, l.Min, l.Max)
		}
		if l.Initial < l.Min || l.Initial > l.Max {
			return fmt.Errorf("flow: %s layer initial %v outside [%v, %v]", l.Kind, l.Initial, l.Min, l.Max)
		}
		if l.Kind == Ingestion && l.Max > maxShards {
			return fmt.Errorf("flow: ingestion max %v exceeds %d shards", l.Max, maxShards)
		}
		if l.Kind == Storage && l.Partitions > maxPartitions {
			return fmt.Errorf("flow: storage partitions %d exceed %d", l.Partitions, maxPartitions)
		}
		if err := l.Controller.validate(l.Kind); err != nil {
			return err
		}
	}
	for _, kind := range []LayerKind{Ingestion, Analytics, Storage} {
		if !seen[kind] {
			return fmt.Errorf("flow: missing %s layer", kind)
		}
	}
	if _, err := s.Workload.ToPattern(); err != nil {
		return err
	}
	if err := s.Prices.Validate(); err != nil {
		return err
	}
	if s.Dashboard.Enabled {
		if _, err := s.Dashboard.Workload.ToPattern(); err != nil {
			return fmt.Errorf("flow: dashboard workload: %w", err)
		}
		if s.Dashboard.MinRCU <= 0 || s.Dashboard.MinRCU > s.Dashboard.MaxRCU {
			return fmt.Errorf("flow: dashboard RCU range [%v, %v] invalid",
				s.Dashboard.MinRCU, s.Dashboard.MaxRCU)
		}
		if s.Dashboard.InitialRCU < s.Dashboard.MinRCU || s.Dashboard.InitialRCU > s.Dashboard.MaxRCU {
			return fmt.Errorf("flow: dashboard initial RCU %v outside [%v, %v]",
				s.Dashboard.InitialRCU, s.Dashboard.MinRCU, s.Dashboard.MaxRCU)
		}
		if s.Dashboard.ItemBytes < 0 {
			return fmt.Errorf("flow: dashboard item bytes must be non-negative")
		}
		if err := s.Dashboard.Controller.validate(Storage); err != nil {
			return fmt.Errorf("flow: dashboard controller: %w", err)
		}
	}
	return nil
}

func (c ControllerSpec) validate(kind LayerKind) error {
	switch c.Type {
	case ControllerNone:
		return nil
	case ControllerAdaptive, ControllerMemoryless:
		if c.L0 <= 0 || c.Gamma <= 0 || c.LMin <= 0 || c.LMax < c.LMin {
			return fmt.Errorf("flow: %s adaptive controller needs l0, gamma, l_min <= l_max > 0", kind)
		}
	case ControllerFixedGain:
		if c.L <= 0 {
			return fmt.Errorf("flow: %s fixed-gain controller needs l > 0", kind)
		}
	case ControllerQuasiAdaptive:
		if c.Forgetting <= 0 || c.Forgetting > 1 {
			return fmt.Errorf("flow: %s quasi-adaptive controller needs forgetting in (0, 1]", kind)
		}
	case ControllerRule:
		if c.High <= c.Low || c.UpFactor <= 1 || c.DownFactor <= 0 || c.DownFactor >= 1 {
			return fmt.Errorf("flow: %s rule controller thresholds/factors invalid", kind)
		}
	default:
		return fmt.Errorf("flow: %s layer has unknown controller type %q", kind, c.Type)
	}
	if c.Ref <= 0 && c.Type != ControllerRule && c.Type != ControllerNone {
		return fmt.Errorf("flow: %s controller needs a positive reference value", kind)
	}
	if c.Window.D() <= 0 {
		return fmt.Errorf("flow: %s controller needs a positive monitoring window", kind)
	}
	return nil
}

// MarshalJSON and friends: Duration wraps time.Duration with string JSON
// encoding ("5m", "30s") so flow files stay human-editable.
type Duration time.Duration

// D converts to time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting either a duration
// string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("flow: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("flow: duration must be a string or integer nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// Encode renders the spec as indented JSON.
func (s Spec) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Decode parses a JSON spec and validates it.
func Decode(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("flow: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
