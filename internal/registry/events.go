package registry

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/eventbus"
	"repro/internal/flow"
	"repro/internal/sim"
)

// Watch event types published on the registry's bus. The topic of every
// event is the flow's registry id, so subscribers filter per flow.
const (
	EventFlowCreated  = "flow.created"
	EventFlowDeleted  = "flow.deleted"
	EventFlowAdvanced = "flow.advanced"
	EventFlowDecision = "flow.decision"
	EventFlowPace     = "flow.pace"
)

// FlowLifecycle is the payload of flow.created / flow.deleted.
type FlowLifecycle struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
}

// FlowAdvanced is the payload of flow.advanced: one completed Advance
// (manual or pacer tick) with the flow's cumulative run counters.
type FlowAdvanced struct {
	ID            string    `json:"id"`
	Advanced      string    `json:"advanced"`
	SimTime       time.Time `json:"sim_time"`
	Ticks         int       `json:"ticks"`
	ViolationRate float64   `json:"violation_rate"`
	TotalCost     float64   `json:"total_cost_usd"`
}

// FlowDecision is the payload of flow.decision: one control action a
// layer's controller took during an advance.
type FlowDecision struct {
	ID       string    `json:"id"`
	Layer    string    `json:"layer"`
	At       time.Time `json:"at"`
	Measured float64   `json:"measured"`
	Ref      float64   `json:"ref"`
	OldU     float64   `json:"old_allocation"`
	NewU     float64   `json:"new_allocation"`
	Applied  bool      `json:"applied"`
	Note     string    `json:"note,omitempty"`
}

// FlowPace is the payload of flow.pace: the pacer was started or stopped.
// Error is set when the pacer died on its own because advancing failed.
type FlowPace struct {
	ID      string  `json:"id"`
	Running bool    `json:"running"`
	Pace    float64 `json:"pace,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Events returns the registry's event bus: every flow lifecycle change,
// advance, controller decision and pacer transition is published on it,
// with the flow id as the topic. The HTTP watch endpoints subscribe here.
func (r *Registry) Events() *eventbus.Bus { return r.bus }

// decisionMark snapshots how many decisions each control loop has
// recorded, so the new ones an advance produced can be published after it.
type decisionMark map[flow.LayerKind]int

// markDecisions must run under f.mu.
func markDecisions(m *core.Manager) decisionMark {
	loops := m.Harness().Loops
	marks := make(decisionMark, len(loops))
	for kind, loop := range loops {
		marks[kind] = len(loop.Decisions())
	}
	return marks
}

// layerDecisions is the decisions one control loop recorded in an advance.
type layerDecisions struct {
	kind      flow.LayerKind
	decisions []control.Decision
}

// newDecisions must run under f.mu; it copies the decisions recorded since
// the mark so they can be published outside the lock. They come back in
// publishing order: ingestion, analytics, storage, then any other loop
// (storage-reads) by name, so a flow's event stream is a function of its
// spec and seed and not of map iteration.
func newDecisions(m *core.Manager, marks decisionMark) []layerDecisions {
	var out []layerDecisions
	for kind, loop := range m.Harness().Loops {
		all := loop.Decisions()
		if from := marks[kind]; len(all) > from {
			out = append(out, layerDecisions{kind, append([]control.Decision(nil), all[from:]...)})
		}
	}
	slices.SortFunc(out, func(a, b layerDecisions) int {
		if c := cmp.Compare(layerRank(a.kind), layerRank(b.kind)); c != 0 {
			return c
		}
		return strings.Compare(string(a.kind), string(b.kind))
	})
	return out
}

// layerRank orders the three layers as a flow does; every other loop key
// ranks after them.
func layerRank(kind flow.LayerKind) int {
	switch kind {
	case flow.Ingestion:
		return 0
	case flow.Analytics:
		return 1
	case flow.Storage:
		return 2
	}
	return 3
}

// publishAdvance emits the flow.advanced event plus one flow.decision per
// control action the advance produced, returning the flow.advanced event's
// bus sequence (0 when the flow has no bus) so the tick tracer can match
// the event's SSE delivery. Advance calls it under f.mu so concurrent
// advances publish in simulation order; that is safe because Publish never
// blocks on subscribers.
func (f *Flow) publishAdvance(d time.Duration, res sim.Progress, simTime time.Time, decided []layerDecisions) uint64 {
	if f.bus == nil {
		return 0
	}
	seq := f.bus.Publish(EventFlowAdvanced, f.id, FlowAdvanced{
		ID:            f.id,
		Advanced:      d.String(),
		SimTime:       simTime,
		Ticks:         res.Ticks,
		ViolationRate: res.ViolationRate,
		TotalCost:     res.TotalCost,
	})
	for _, ld := range decided {
		for _, dec := range ld.decisions {
			f.bus.Publish(EventFlowDecision, f.id, FlowDecision{
				ID:       f.id,
				Layer:    string(ld.kind),
				At:       dec.At,
				Measured: dec.Measured,
				Ref:      dec.Ref,
				OldU:     dec.OldU,
				NewU:     dec.NewU,
				Applied:  dec.Applied,
				Note:     dec.Note,
			})
		}
	}
	return seq
}
