package registry

import (
	"slices"
	"testing"
	"time"

	"repro/internal/eventbus"
	"repro/internal/sim"
)

// TestDecisionEventsPublishInLayerOrder advances two flows built from the
// same spec and seed in lockstep: their event streams must match record
// for record, so decisions several layers take in one advance cannot come
// out in map-iteration order.
func TestDecisionEventsPublishInLayerOrder(t *testing.T) {
	type rec struct {
		typ, layer string
		at         time.Time
	}
	r := New()
	sub := r.Events().Subscribe(1<<14, eventbus.Live, nil)
	defer sub.Close()
	for _, id := range []string{"a", "b"} {
		if _, err := r.Create(id, testSpec(t, "twin"), sim.Options{Step: 10 * time.Second, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := r.Get("a")
	b, _ := r.Get("b")
	for i := 0; i < 40; i++ {
		for _, f := range []*Flow{a, b} {
			if _, err := f.Advance(15 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}

	streams := map[string][]rec{}
	multiLayer := 0 // advances in which more than one layer decided
	layersThisAdvance := map[string]map[string]bool{}
	for len(sub.Events()) > 0 {
		ev := <-sub.Events()
		switch p := ev.Data.(type) {
		case FlowAdvanced:
			if len(layersThisAdvance[ev.Topic]) > 1 && ev.Topic == "a" {
				multiLayer++
			}
			layersThisAdvance[ev.Topic] = map[string]bool{}
			streams[ev.Topic] = append(streams[ev.Topic], rec{ev.Type, "", time.Time{}})
		case FlowDecision:
			layersThisAdvance[ev.Topic][p.Layer] = true
			streams[ev.Topic] = append(streams[ev.Topic], rec{ev.Type, p.Layer, p.At})
		}
	}
	if n := sub.Dropped(); n != 0 {
		t.Fatalf("subscriber dropped %d events", n)
	}
	if multiLayer == 0 {
		t.Fatal("no advance had decisions from more than one layer; the test checks nothing")
	}
	if len(streams["a"]) == 0 || !slices.Equal(streams["a"], streams["b"]) {
		for i := range min(len(streams["a"]), len(streams["b"])) {
			if streams["a"][i] != streams["b"][i] {
				t.Fatalf("record %d differs: a %+v, b %+v", i, streams["a"][i], streams["b"][i])
			}
		}
		t.Fatalf("streams differ: a has %d records, b %d", len(streams["a"]), len(streams["b"]))
	}
}
