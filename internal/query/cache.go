package query

import (
	"sync"
	"time"

	"repro/internal/eventbus"
	"repro/internal/metricstore"
	"repro/internal/registry"
)

// flowMatcher is an optional Source refinement: a source that answers
// "which flows match this glob" directly. resolveSelect uses it when
// present instead of filtering FlowIDs() per select — the hook PlanCache
// plugs its memoised resolution into.
type flowMatcher interface {
	FlowsMatching(glob string) []string
}

// PlanCache wraps a Source and memoises the planner's flow-glob
// resolution: which flow IDs each select glob matches. Planning used to
// re-walk every registered flow per request; with tens of thousands of
// flows that walk — and its glob match per flow — dominated plan time for
// the common case of a repeated dashboard query. The flow set only
// changes on flow creation and deletion, so the cache holds a coalescing
// eventbus.Flag on those events and invalidates wholesale when it finds the
// flag raised; per-flow series resolution stays live (metrics appear at
// runtime without any flow lifecycle event), which keeps the cache safe by
// construction. The cache only ever needs "something changed since I last
// looked", so the flag — unlike a buffered subscription — cannot overflow
// on a plane that creates flows and never queries.
//
// A PlanCache is safe for concurrent use. Close releases its bus
// subscription, after which the cache degrades to a pass-through (every
// lookup recomputes) rather than serving sets nothing can invalidate.
type PlanCache struct {
	src   Source
	dirty *eventbus.Flag

	mu       sync.Mutex
	gen      uint64 // bumped on every invalidation
	disabled bool   // no bus, or the bus closed: recompute every time
	flows    map[string][]string
}

// NewPlanCache wraps src with glob-resolution memoisation invalidated by
// flow.created/flow.deleted events on bus. A nil bus yields a permanent
// pass-through (valid, but caching nothing).
func NewPlanCache(src Source, bus *eventbus.Bus) *PlanCache {
	c := &PlanCache{src: src, flows: map[string][]string{}}
	if bus == nil {
		c.disabled = true
		return c
	}
	c.dirty = bus.SubscribeFlag(func(ev eventbus.Event) bool {
		return ev.Type == registry.EventFlowCreated || ev.Type == registry.EventFlowDeleted
	})
	return c
}

// Close releases the cache's bus subscription. The cache remains usable
// as a pass-through afterwards.
func (c *PlanCache) Close() {
	if c.dirty == nil {
		return
	}
	c.mu.Lock()
	c.disabled = true
	c.flows = map[string][]string{}
	c.mu.Unlock()
	c.dirty.Close()
}

// FlowIDs delegates to the wrapped source.
func (c *PlanCache) FlowIDs() []string { return c.src.FlowIDs() }

// WithFlow delegates to the wrapped source.
func (c *PlanCache) WithFlow(id string, fn func(store *metricstore.Store, now time.Time)) bool {
	return c.src.WithFlow(id, fn)
}

// FlowsMatching returns the flow IDs matching glob, from cache when the
// entry is still valid. The dirty flag is taken first, so a lookup never
// returns a set older than the last lifecycle event published before it.
func (c *PlanCache) FlowsMatching(glob string) []string {
	c.mu.Lock()
	c.invalidateIfDirtyLocked()
	if ids, ok := c.flows[glob]; ok {
		c.mu.Unlock()
		telPlanCacheHits.Inc()
		return ids
	}
	gen := c.gen
	disabled := c.disabled
	c.mu.Unlock()
	telPlanCacheMisses.Inc()

	// Compute outside the cache lock: FlowIDs takes registry locks, and a
	// slow walk must not block concurrent cached lookups.
	var ids []string
	for _, id := range c.src.FlowIDs() {
		if matchGlob(glob, id) {
			ids = append(ids, id)
		}
	}
	if ids == nil {
		ids = []string{}
	}
	if disabled {
		return ids
	}
	c.mu.Lock()
	// Store only if no invalidation raced the walk — a flow created or
	// deleted mid-walk may or may not be in ids, so caching it would pin a
	// set no event will ever invalidate again.
	if c.invalidateIfDirtyLocked(); c.gen == gen && !c.disabled {
		c.flows[glob] = ids
	}
	c.mu.Unlock()
	return ids
}

// invalidateIfDirtyLocked clears the cache if a lifecycle event was
// published since the last call; c.mu must be held.
func (c *PlanCache) invalidateIfDirtyLocked() {
	if !c.disabled && c.dirty.Take() {
		c.flows = map[string][]string{}
		c.gen++
	}
}
