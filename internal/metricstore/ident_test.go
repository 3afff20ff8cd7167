package metricstore

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// maxGCCycles bounds the collections the tests below wait through for a
// dropped store's cleanups to run.
const maxGCCycles = 100

// identLive reports whether the identity table holds an entry for key.
func identLive(key string) bool {
	idents.mu.Lock()
	defer idents.mu.Unlock()
	_, ok := idents.m[key]
	return ok
}

// collectUntil runs collections until done reports true, yielding after
// each so the cleanup goroutine can run, and reports whether it did within
// maxGCCycles.
func collectUntil(done func() bool) bool {
	for i := 0; i < maxGCCycles; i++ {
		runtime.GC()
		if done() {
			return true
		}
		runtime.Gosched()
	}
	return done()
}

// settleGauges collects until the store gauges hold still across three
// cycles, so garbage earlier tests left cannot move them mid-test.
func settleGauges() {
	last, still := [2]int64{-1, -1}, 0
	collectUntil(func() bool {
		cur := [2]int64{telEntries.Value(), telIdentities.Value()}
		if cur == last {
			still++
		} else {
			last, still = cur, 0
		}
		return still == 3
	})
}

// TestIdentSharedAcrossStores: two stores interning one metric hold one
// identity, so they report the same dimension map and key string.
func TestIdentSharedAcrossStores(t *testing.T) {
	a, b := NewStore(), NewStore()
	ha := a.MustHandle("IdentShared", "m", dims("k", "v"))
	hb := b.MustHandle("IdentShared", "m", dims("k", "v"))
	if ha.e.ident != hb.e.ident {
		t.Fatal("two stores hold separate identities for one metric")
	}
	if reflect.ValueOf(ha.ID().Dimensions).UnsafePointer() != reflect.ValueOf(hb.ID().Dimensions).UnsafePointer() {
		t.Error("two stores report separate dimension maps for one metric")
	}
	if unsafe.StringData(ha.e.ident.key) != unsafe.StringData(hb.e.ident.key) {
		t.Error("two stores hold separate key strings for one metric")
	}
	ha.MustAppend(t0, 1)
	hb.MustAppend(t0, 2)
	la, lb := a.ListMetrics("IdentShared"), b.ListMetrics("IdentShared")
	if len(la) != 1 || len(lb) != 1 {
		t.Fatalf("ListMetrics = %v and %v, want one metric each", la, lb)
	}
	if reflect.ValueOf(la[0].Dimensions).UnsafePointer() != reflect.ValueOf(ha.ID().Dimensions).UnsafePointer() {
		t.Error("ListMetrics reports a different dimension map than Handle.ID")
	}
	for k := range a.series {
		if unsafe.StringData(k) != unsafe.StringData(ha.e.ident.key) {
			t.Error("the store's series map is keyed by a private copy of the key")
		}
	}
}

// internInTwoStores interns one metric in two fresh stores and drops
// both, returning its key.
func internInTwoStores(name string) string {
	a, b := NewStore(), NewStore()
	a.MustHandle("IdentCollected", name, nil).MustAppend(t0, 1)
	return b.MustHandle("IdentCollected", name, nil).ID().Key()
}

// TestIdentCollectedWithStores: once no store holds an identity, the table
// forgets it, so ever-new metric names do not accumulate.
func TestIdentCollectedWithStores(t *testing.T) {
	key := internInTwoStores("m")
	if !collectUntil(func() bool { return !identLive(key) }) {
		t.Fatalf("the identity table still holds %q after %d collections with no store using it", key, maxGCCycles)
	}
}

// TestIdentConcurrentIntern: goroutines interning the same identities in
// separate stores end with exactly one identity per metric. Run under
// -race.
func TestIdentConcurrentIntern(t *testing.T) {
	const goroutines, metrics = 8, 40
	stores := make([]*Store, goroutines)
	var wg sync.WaitGroup
	for g := range stores {
		stores[g] = NewStore()
		wg.Add(1)
		go func(s *Store) {
			defer wg.Done()
			for m := 0; m < metrics; m++ {
				s.MustHandle("IdentConcurrent", fmt.Sprintf("m%d", m), dims("k", "v"))
			}
		}(stores[g])
	}
	wg.Wait()
	for m := 0; m < metrics; m++ {
		name := fmt.Sprintf("m%d", m)
		want := stores[0].lookup("IdentConcurrent", name, dims("k", "v")).ident
		for g, s := range stores[1:] {
			if got := s.lookup("IdentConcurrent", name, dims("k", "v")).ident; got != want {
				t.Fatalf("store %d holds a second identity for %s", g+1, name)
			}
		}
		idents.mu.Lock()
		got, refs := idents.m[want.key], want.refs
		idents.mu.Unlock()
		if got != want {
			t.Fatalf("the identity table maps %s to another identity than the stores hold", name)
		}
		if refs != goroutines {
			t.Fatalf("%s has %d references from %d stores", name, refs, goroutines)
		}
	}
}

// addStores creates n stores each holding the same three metrics.
func addStores(n int) []*Store {
	stores := make([]*Store, n)
	for i := range stores {
		stores[i] = NewStore()
		for _, m := range []string{"a", "b", "c"} {
			stores[i].MustHandle("EntriesGauge", m, nil)
		}
	}
	return stores
}

// TestEntriesGaugeFollowsStores: flower_store_entries counts the series of
// live stores only, and flower_store_identities the identities they share;
// both return to their baseline once the stores are collected.
func TestEntriesGaugeFollowsStores(t *testing.T) {
	settleGauges()
	entries0, idents0 := telEntries.Value(), telIdentities.Value()
	const stores = 100
	held := addStores(stores)
	if got := telEntries.Value() - entries0; got != 3*stores {
		t.Errorf("flower_store_entries rose by %d for %d stores of 3 metrics, want %d", got, stores, 3*stores)
	}
	if got := telIdentities.Value() - idents0; got != 3 {
		t.Errorf("flower_store_identities rose by %d for 3 shared metrics, want 3", got)
	}
	// Held until here so a collection during the checks above cannot
	// take the stores off the gauges early.
	runtime.KeepAlive(held)
	if !collectUntil(func() bool {
		return telEntries.Value() <= entries0 && telIdentities.Value() <= idents0
	}) {
		t.Fatalf("after the stores were dropped and %d collections: flower_store_entries %d (baseline %d), flower_store_identities %d (baseline %d)",
			maxGCCycles, telEntries.Value(), entries0, telIdentities.Value(), idents0)
	}
}
