// Package compute implements the analytics-layer substrate: a stream
// processing topology executed on a simulated VM cluster, modelled on
// Apache Storm deployed on EC2 — the analytics layer of the paper's
// click-stream flow (Fig. 1).
//
// The model captures what Flower observes and actuates at this layer:
//
//   - a Topology is a spout followed by bolt stages, each with a CPU cost
//     per tuple and a selectivity (output tuples per input tuple);
//   - a Cluster executes the topology with an aggregate CPU budget
//     proportional to its VM count; tuples beyond the budget queue up;
//   - measured cluster CPU utilisation is the sensor (the paper's Fig. 2
//     plots exactly this signal against the ingestion arrival rate);
//   - the VM count is the actuator ("adding or removing VMs", §2), with an
//     optional provisioning delay to model instance boot time.
//
// Because per-tick CPU demand is (arrival rate × per-tuple cost), measured
// utilisation is linear in the ingestion rate as long as the cluster is not
// saturated — which is what makes the paper's linear dependency model
// (Eq. 1–2) a good fit, and what experiment E1/E2 reproduces.
package compute

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/metricstore"
	"repro/internal/stream"
)

// Namespace is the metric namespace the cluster publishes under.
const Namespace = "Analytics/Compute"

// Metric names published each tick.
const (
	MetricCPUUtilization  = "CPUUtilization"
	MetricProcessedTuples = "ProcessedTuples"
	MetricPendingTuples   = "PendingTuples"
	MetricVMCount         = "VMCount"
	MetricLatencyMs       = "ExecuteLatencyMs"
	MetricEmittedTuples   = "EmittedTuples"
)

// Stage is one bolt in a topology.
type Stage struct {
	Name        string
	CostMs      float64 // CPU milliseconds consumed per input tuple
	Selectivity float64 // output tuples per input tuple (>= 0)
}

// Topology is a linear spout→bolt chain. (The paper's click-stream demo
// uses Amazon's reference sliding-window topology, which is linear:
// parse → sessionize → aggregate.)
type Topology struct {
	Name   string
	Stages []Stage
}

// Validate checks topology invariants.
func (t Topology) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("compute: topology name is required")
	}
	if len(t.Stages) == 0 {
		return fmt.Errorf("compute: topology %q has no stages", t.Name)
	}
	for _, st := range t.Stages {
		if st.CostMs < 0 {
			return fmt.Errorf("compute: stage %q has negative cost", st.Name)
		}
		if st.Selectivity < 0 {
			return fmt.Errorf("compute: stage %q has negative selectivity", st.Name)
		}
	}
	return nil
}

// CostPerTupleMs returns the total CPU milliseconds one spout tuple costs
// across all stages, accounting for selectivity fan-in/fan-out: a stage
// processing k tuples per original input contributes k times its cost.
func (t Topology) CostPerTupleMs() float64 {
	mult := 1.0
	total := 0.0
	for _, st := range t.Stages {
		total += mult * st.CostMs
		mult *= st.Selectivity
	}
	return total
}

// OutputSelectivity returns final output tuples per spout tuple.
func (t Topology) OutputSelectivity() float64 {
	mult := 1.0
	for _, st := range t.Stages {
		mult *= st.Selectivity
	}
	return mult
}

// Source supplies input tuples each tick. The analytics topology only
// needs tuple counts: payloads never affect the CPU model. *stream.Stream
// is adapted via StreamSource.
type Source interface {
	// PollCount removes up to max pending records and returns how many.
	PollCount(max int) int
}

// StreamSource adapts a stream.Stream into a Source.
type StreamSource struct{ Stream *stream.Stream }

// PollCount drains up to max backlog records and returns the count.
func (s StreamSource) PollCount(max int) int { return s.Stream.DrainCount(max) }

// Sink receives the topology's output tuples. The storage layer adapts its
// table writer into this.
type Sink interface {
	// Emit delivers n output tuples of approximately avgBytes each.
	Emit(now time.Time, n int, avgBytes int)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(now time.Time, n int, avgBytes int)

// Emit calls f.
func (f SinkFunc) Emit(now time.Time, n int, avgBytes int) { f(now, n, avgBytes) }

// Config parameterises a Cluster.
type Config struct {
	Topology Topology
	// VMCapacityMsPerSec is the CPU milliseconds one VM delivers per wall
	// second (e.g. 4 cores × 1000ms × 0.8 efficiency = 3200).
	VMCapacityMsPerSec float64
	// InitialVMs is the starting cluster size.
	InitialVMs int
	// MinVMs / MaxVMs clamp the actuator range.
	MinVMs, MaxVMs int
	// ProvisionDelay is how long a VM-count change takes to become
	// effective (instance boot / Storm rebalance). Zero applies instantly.
	ProvisionDelay time.Duration
	// MaxQueue bounds the pending-tuple queue; beyond it tuples are shed
	// and counted as failed. Zero means unbounded.
	MaxQueue int
	// CPUNoiseStd is the standard deviation (in percentage points) of the
	// Gaussian measurement noise added to the published CPU metric, making
	// Fig. 2's correlation realistically just-below 1. Zero disables noise.
	CPUNoiseStd float64
	// BaseCPUPct is the idle CPU floor (OS daemons, supervisor, heartbeat
	// traffic) added to the load-proportional utilisation. The paper's
	// Eq. 2 intercept (CPU ≈ 0.0002·WriteCapacity + 4.8) is exactly this
	// floor: ~4.8% CPU at zero ingest.
	BaseCPUPct float64
	// BaseLatencyMs is the no-load execute latency.
	BaseLatencyMs float64
	// OutputBytes is the approximate size of one emitted tuple.
	OutputBytes int
	// Seed drives the measurement-noise RNG.
	Seed int64
}

// Cluster is the simulated analytics cluster.
type Cluster struct {
	cfg   Config
	vms   int
	queue int
	shed  int // tuples dropped due to MaxQueue, cumulative

	pendingVMs    int       // target of an in-flight resize
	pendingAt     time.Time // when the resize completes
	resizePending bool

	source Source
	sink   Sink

	store *metricstore.Store
	dims  map[string]string
	rng   *rand.Rand

	// Per-tick publish handles, resolved once at construction so Tick's
	// metric writes are allocation-free (nil when store is nil).
	mCPU       *metricstore.Handle
	mProcessed *metricstore.Handle
	mPending   *metricstore.Handle
	mVMs       *metricstore.Handle
	mLatency   *metricstore.Handle
	mEmitted   *metricstore.Handle

	lastUtil float64 // last published CPU utilisation (pre-noise)
}

// NewCluster builds a cluster. source and sink may be nil (useful in unit
// tests that inject tuples directly).
func NewCluster(cfg Config, source Source, sink Sink, store *metricstore.Store) (*Cluster, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.VMCapacityMsPerSec <= 0 {
		return nil, fmt.Errorf("compute: VMCapacityMsPerSec must be positive")
	}
	if cfg.InitialVMs <= 0 {
		return nil, fmt.Errorf("compute: InitialVMs must be positive")
	}
	if cfg.MinVMs <= 0 {
		cfg.MinVMs = 1
	}
	if cfg.MaxVMs <= 0 {
		cfg.MaxVMs = 1 << 20
	}
	if cfg.MinVMs > cfg.MaxVMs {
		return nil, fmt.Errorf("compute: MinVMs %d > MaxVMs %d", cfg.MinVMs, cfg.MaxVMs)
	}
	if cfg.InitialVMs < cfg.MinVMs || cfg.InitialVMs > cfg.MaxVMs {
		return nil, fmt.Errorf("compute: InitialVMs %d outside [%d,%d]", cfg.InitialVMs, cfg.MinVMs, cfg.MaxVMs)
	}
	if cfg.BaseLatencyMs <= 0 {
		cfg.BaseLatencyMs = 5
	}
	if cfg.OutputBytes <= 0 {
		cfg.OutputBytes = 256
	}
	c := &Cluster{
		cfg:    cfg,
		vms:    cfg.InitialVMs,
		source: source,
		sink:   sink,
		store:  store,
		dims:   map[string]string{"Topology": cfg.Topology.Name},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if store != nil {
		c.mCPU = store.MustHandle(Namespace, MetricCPUUtilization, c.dims)
		c.mProcessed = store.MustHandle(Namespace, MetricProcessedTuples, c.dims)
		c.mPending = store.MustHandle(Namespace, MetricPendingTuples, c.dims)
		c.mVMs = store.MustHandle(Namespace, MetricVMCount, c.dims)
		c.mLatency = store.MustHandle(Namespace, MetricLatencyMs, c.dims)
		c.mEmitted = store.MustHandle(Namespace, MetricEmittedTuples, c.dims)
	}
	return c, nil
}

// VMCount reports the currently effective VM count.
func (c *Cluster) VMCount() int { return c.vms }

// MinVMs returns the actuator's lower bound.
func (c *Cluster) MinVMs() int { return c.cfg.MinVMs }

// MaxVMs returns the actuator's upper bound.
func (c *Cluster) MaxVMs() int { return c.cfg.MaxVMs }

// PendingTuples reports the queued, unprocessed tuple count.
func (c *Cluster) PendingTuples() int { return c.queue }

// ShedTuples reports the cumulative count of tuples dropped at MaxQueue.
func (c *Cluster) ShedTuples() int { return c.shed }

// LastUtilization reports the most recent true (pre-noise) CPU utilisation.
func (c *Cluster) LastUtilization() float64 { return c.lastUtil }

// SetVMCount requests a cluster resize, clamped to [MinVMs, MaxVMs]. With
// a ProvisionDelay the change takes effect that much later. A newer request
// while a resize is in flight retargets it but keeps the original
// completion time — instances already booting are not cancelled and
// re-ordered, so a steady stream of commands cannot starve the resize
// (which is how real provider control planes converge on the latest
// desired capacity).
func (c *Cluster) SetVMCount(now time.Time, n int) error {
	if n < c.cfg.MinVMs {
		n = c.cfg.MinVMs
	}
	if n > c.cfg.MaxVMs {
		n = c.cfg.MaxVMs
	}
	if c.cfg.ProvisionDelay <= 0 {
		c.vms = n
		c.resizePending = false
		return nil
	}
	c.pendingVMs = n
	if !c.resizePending {
		c.pendingAt = now.Add(c.cfg.ProvisionDelay)
		c.resizePending = true
	}
	return nil
}

// InjectTuples queues n tuples directly, bypassing the source. Tests and
// standalone examples use this.
func (c *Cluster) InjectTuples(n int) {
	c.queue += n
	c.capQueue()
}

func (c *Cluster) capQueue() {
	if c.cfg.MaxQueue > 0 && c.queue > c.cfg.MaxQueue {
		c.shed += c.queue - c.cfg.MaxQueue
		c.queue = c.cfg.MaxQueue
	}
}

// Tick runs one simulation step: applies due resizes, pulls input, spends
// the CPU budget, emits output downstream, and publishes metrics.
func (c *Cluster) Tick(now time.Time, step time.Duration) {
	if c.resizePending && !now.Before(c.pendingAt) {
		c.vms = c.pendingVMs
		c.resizePending = false
	}

	costMs := c.cfg.Topology.CostPerTupleMs()
	capacityMs := float64(c.vms) * c.cfg.VMCapacityMsPerSec * step.Seconds()

	// Pull everything the source has; admission control is the queue cap.
	pulled := 0
	if c.source != nil {
		pulled = c.source.PollCount(1 << 30)
		c.queue += pulled
		c.capQueue()
	}

	// Process as much of the queue as the CPU budget allows.
	canProcess := c.queue
	if costMs > 0 {
		if byCPU := int(capacityMs / costMs); byCPU < canProcess {
			canProcess = byCPU
		}
	}
	processed := canProcess
	c.queue -= processed

	demandMs := float64(processed) * costMs
	util := c.cfg.BaseCPUPct
	if capacityMs > 0 {
		util += demandMs / capacityMs * 100
	}
	if util > 100 {
		util = 100
	}
	// A standing queue means the cluster is saturated regardless of
	// integer-rounding slack in the budget.
	if c.queue > 0 {
		util = 100
	}
	c.lastUtil = util

	// Output.
	emitted := int(float64(processed) * c.cfg.Topology.OutputSelectivity())
	if c.sink != nil && emitted > 0 {
		c.sink.Emit(now, emitted, c.cfg.OutputBytes)
	}

	// Latency from an M/M/1-style load amplification, growing with queue.
	rho := util / 100
	latency := c.cfg.BaseLatencyMs
	if rho < 0.99 {
		latency = c.cfg.BaseLatencyMs / (1 - rho)
	} else {
		procRate := capacityMs / math.Max(costMs, 1e-9) / step.Seconds() // tuples per second
		latency = c.cfg.BaseLatencyMs*100 + float64(c.queue)/math.Max(procRate, 1e-9)*1000
	}

	if c.store != nil {
		measured := util
		if c.cfg.CPUNoiseStd > 0 {
			measured += c.rng.NormFloat64() * c.cfg.CPUNoiseStd
			if measured < 0 {
				measured = 0
			}
			if measured > 100 {
				measured = 100
			}
		}
		c.mCPU.MustAppend(now, measured)
		c.mProcessed.MustAppend(now, float64(processed))
		c.mPending.MustAppend(now, float64(c.queue))
		c.mVMs.MustAppend(now, float64(c.vms))
		c.mLatency.MustAppend(now, latency)
		c.mEmitted.MustAppend(now, float64(emitted))
	}
}
