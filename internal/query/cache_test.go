package query

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/eventbus"
	"repro/internal/metricstore"
	"repro/internal/registry"
)

// cacheSource is a mutable StaticSource stand-in whose flow set the tests
// change between lookups to prove what the cache does (and does not)
// re-read.
type cacheSource struct {
	flows StaticSource
	walks int // FlowIDs calls: how often the cache paid for a full walk
}

func (s *cacheSource) FlowIDs() []string { s.walks++; return s.flows.FlowIDs() }
func (s *cacheSource) WithFlow(id string, fn func(store *metricstore.Store, now time.Time)) bool {
	return s.flows.WithFlow(id, fn)
}

func testFlows(ids ...string) StaticSource {
	src := StaticSource{}
	for _, id := range ids {
		src[id] = StaticFlow{Store: metricstore.NewStore(), Now: time.Unix(0, 0)}
	}
	return src
}

// TestPlanCacheMemoises: the second identical lookup is served without
// walking the source, and distinct globs are cached independently.
func TestPlanCacheMemoises(t *testing.T) {
	src := &cacheSource{flows: testFlows("api", "api-eu", "batch")}
	bus := eventbus.New(0)
	c := NewPlanCache(src, bus)
	defer c.Close()

	want := []string{"api", "api-eu"}
	if got := c.FlowsMatching("api*"); !reflect.DeepEqual(got, want) {
		t.Fatalf("FlowsMatching(api*) = %v, want %v", got, want)
	}
	walks := src.walks
	if got := c.FlowsMatching("api*"); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached FlowsMatching(api*) = %v, want %v", got, want)
	}
	if src.walks != walks {
		t.Fatalf("cache hit walked the source (%d -> %d walks)", walks, src.walks)
	}
	if got := c.FlowsMatching("batch"); !reflect.DeepEqual(got, []string{"batch"}) {
		t.Fatalf("FlowsMatching(batch) = %v", got)
	}
	if got := c.FlowsMatching("nothing-*"); len(got) != 0 {
		t.Fatalf("FlowsMatching(nothing-*) = %v, want empty", got)
	}
	if src.walks != walks+2 {
		t.Fatalf("distinct globs should each walk once: %d -> %d", walks, src.walks)
	}
}

// TestPlanCacheInvalidation: flow lifecycle events clear the cache so the
// next lookup sees the changed flow set; unrelated events do not.
func TestPlanCacheInvalidation(t *testing.T) {
	src := &cacheSource{flows: testFlows("api")}
	bus := eventbus.New(0)
	c := NewPlanCache(src, bus)
	defer c.Close()

	if got := c.FlowsMatching("*"); !reflect.DeepEqual(got, []string{"api"}) {
		t.Fatalf("initial FlowsMatching = %v", got)
	}

	// An unrelated event must not evict: the subscription filter drops it.
	bus.Publish("experiment.started", "lab", nil)
	walks := src.walks
	c.FlowsMatching("*")
	if src.walks != walks {
		t.Fatal("unrelated event invalidated the plan cache")
	}

	src.flows["api-eu"] = StaticFlow{Store: metricstore.NewStore(), Now: time.Unix(0, 0)}
	bus.Publish(registry.EventFlowCreated, "api-eu", nil)
	if got := c.FlowsMatching("*"); !reflect.DeepEqual(got, []string{"api", "api-eu"}) {
		t.Fatalf("after flow.created, FlowsMatching = %v", got)
	}

	delete(src.flows, "api")
	bus.Publish(registry.EventFlowDeleted, "api", nil)
	if got := c.FlowsMatching("*"); !reflect.DeepEqual(got, []string{"api-eu"}) {
		t.Fatalf("after flow.deleted, FlowsMatching = %v", got)
	}
}

// TestPlanCacheOverflowResyncs: a lifecycle storm on a plane nobody
// queries — far more events than any subscriber buffer would hold — costs
// the bus no drops (the cache's subscription is a coalescing flag, so
// flower_eventbus_dropped_total stays a loss signal), still invalidates,
// and the cache then re-caches cleanly.
func TestPlanCacheOverflowResyncs(t *testing.T) {
	src := &cacheSource{flows: testFlows("a")}
	bus := eventbus.New(0)
	c := NewPlanCache(src, bus)
	defer c.Close()

	c.FlowsMatching("*")
	const storm = 10000
	for i := 0; i < storm; i++ {
		id := fmt.Sprintf("f%05d", i)
		if i%2 == 0 {
			src.flows[id] = StaticFlow{Store: metricstore.NewStore(), Now: time.Unix(0, 0)}
			bus.Publish(registry.EventFlowCreated, id, nil)
		} else {
			bus.Publish(registry.EventFlowDeleted, id, nil)
		}
	}
	if n := bus.TotalDropped(); n != 0 {
		t.Fatalf("query-free plane counted %d dropped events; nobody lost anything", n)
	}
	if got := c.FlowsMatching("f*"); len(got) != storm/2 {
		t.Fatalf("after storm, matched %d flows, want %d", len(got), storm/2)
	}
	if got := c.FlowsMatching("*"); len(got) != storm/2+1 {
		t.Fatalf("after storm, the pre-storm entry for * was served stale: %d flows, want %d", len(got), storm/2+1)
	}
	walks := src.walks
	if got := c.FlowsMatching("f*"); len(got) != storm/2 || src.walks != walks {
		t.Fatalf("post-storm lookup not served from cache (%d flows, %d -> %d walks)",
			len(got), walks, src.walks)
	}
}

// racingSource publishes a lifecycle event from inside the walk, the way a
// flow created while FlowsMatching iterates the registry would.
type racingSource struct {
	cacheSource
	bus  *eventbus.Bus
	race bool
}

func (s *racingSource) FlowIDs() []string {
	ids := s.cacheSource.FlowIDs()
	if s.race {
		s.flows["late"] = StaticFlow{Store: metricstore.NewStore(), Now: time.Unix(0, 0)}
		s.bus.Publish(registry.EventFlowCreated, "late", nil)
	}
	return ids
}

// TestPlanCacheEventDuringWalkNotStored: a set computed while a lifecycle
// event landed may or may not contain that flow, so it must be returned but
// not cached — the next lookup walks again and sees the flow.
func TestPlanCacheEventDuringWalkNotStored(t *testing.T) {
	bus := eventbus.New(0)
	src := &racingSource{cacheSource: cacheSource{flows: testFlows("a")}, bus: bus, race: true}
	c := NewPlanCache(src, bus)
	defer c.Close()

	if got := c.FlowsMatching("*"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("racing walk returned %v, want the pre-event set [a]", got)
	}
	src.race = false
	walks := src.walks
	if got := c.FlowsMatching("*"); !reflect.DeepEqual(got, []string{"a", "late"}) {
		t.Fatalf("lookup after the race = %v, want [a late] (raced set was cached?)", got)
	}
	if src.walks != walks+1 {
		t.Fatalf("lookup after the race did not walk the source (%d -> %d)", walks, src.walks)
	}
	if c.FlowsMatching("*"); src.walks != walks+1 {
		t.Fatal("clean walk after the race was not cached")
	}
}

// TestPlanCacheClosed: once closed, no invalidation can ever arrive, so
// the cache must stop serving cached sets rather than go stale — it
// degrades to a correct pass-through.
func TestPlanCacheClosed(t *testing.T) {
	src := &cacheSource{flows: testFlows("a")}
	bus := eventbus.New(0)
	c := NewPlanCache(src, bus)

	c.FlowsMatching("*")
	c.Close()
	src.flows["b"] = StaticFlow{Store: metricstore.NewStore(), Now: time.Unix(0, 0)}
	if got := c.FlowsMatching("*"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("after Close, FlowsMatching = %v (stale cache?)", got)
	}
	walks := src.walks
	c.FlowsMatching("*")
	if src.walks != walks+1 {
		t.Fatal("closed cache should walk the source every time")
	}
}

// TestPlanCacheNilBus: a cache without a bus is a valid pass-through.
func TestPlanCacheNilBus(t *testing.T) {
	src := &cacheSource{flows: testFlows("a")}
	c := NewPlanCache(src, nil)
	defer c.Close()
	if got := c.FlowsMatching("*"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("FlowsMatching = %v", got)
	}
	src.flows["b"] = StaticFlow{Store: metricstore.NewStore(), Now: time.Unix(0, 0)}
	if got := c.FlowsMatching("*"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("pass-through served stale set: %v", got)
	}
}

// TestPlannerUsesFlowMatcher: Prepare routes its flow-glob step through a
// flowMatcher source, and plans built through the cache resolve the same
// series as plans built on the raw source.
func TestPlannerUsesFlowMatcher(t *testing.T) {
	now := time.Unix(1_700_000_000, 0).UTC()
	flows := testFlows("api", "batch")
	st := flows["api"].Store
	storePut(st, "sys", "cpu", nil, now, 0.5)
	flows["api"] = StaticFlow{Store: st, Now: now}
	bus := eventbus.New(0)
	c := NewPlanCache(&cacheSource{flows: flows}, bus)
	defer c.Close()

	const q = `select flow=api ns=sys name=cpu | window 1m`
	for i := 0; i < 2; i++ { // second iteration plans entirely from cache
		pl, err := Prepare(c, q, nil)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		res, err := pl.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(res.Series) != 1 || res.Series[0].Flow != "api" {
			t.Fatalf("iteration %d: got %d series %+v", i, len(res.Series), res.Series)
		}
	}
}
