package query

import (
	"time"

	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/registry"
)

// Source is where a plan's select stages resolve and execute: a set of
// flows, each owning a metric store and a simulated "now" that anchors
// relative windows. The engine holds one flow at a time — WithFlow must
// provide the same exclusion Flow.View does — which is what lets a query
// stream over live stores while pacers append.
type Source interface {
	// FlowIDs lists the flow identifiers in deterministic (sorted) order.
	FlowIDs() []string
	// WithFlow runs fn with the flow's store and clock under the flow's
	// lock, returning false if the flow no longer exists. fn must not
	// retain the store past the call.
	WithFlow(id string, fn func(store *metricstore.Store, now time.Time)) bool
}

// FromRegistry adapts the flow registry — the control plane's Source.
func FromRegistry(reg *registry.Registry) Source { return registrySource{reg: reg} }

type registrySource struct{ reg *registry.Registry }

func (s registrySource) FlowIDs() []string {
	flows := s.reg.List()
	ids := make([]string, len(flows))
	for i, f := range flows {
		ids[i] = f.ID()
	}
	return ids
}

func (s registrySource) WithFlow(id string, fn func(store *metricstore.Store, now time.Time)) bool {
	f, ok := s.reg.Get(id)
	if !ok {
		return false
	}
	f.View(func(m *core.Manager) {
		fn(m.Store(), m.Harness().Clock.Now())
	})
	return true
}
