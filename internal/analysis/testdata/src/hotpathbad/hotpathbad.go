// Package hotpathbad is flowervet testdata: a package opted onto the
// per-tick path that resolves metric identities inside loops.
//
//flowervet:hotpath
package hotpathbad

import (
	"fmt"

	"repro/internal/metricstore"
)

// ReadLoop resolves a handle per iteration, building the key with
// fmt.Sprintf each time.
func ReadLoop(s *metricstore.Store, names []string) int {
	n := 0
	for _, name := range names {
		if _, ok := s.Lookup("Ingestion/Stream", fmt.Sprintf("m-%s", name), nil); ok { // want "Store.Lookup inside a loop" "fmt.Sprintf builds part of a metric identity"
			n++
		}
	}
	return n
}

// IDsPerTick builds metric identities per iteration by concatenation.
func IDsPerTick(keys []string) []metricstore.MetricID {
	var out []metricstore.MetricID
	for _, k := range keys {
		out = append(out, metricstore.MetricID{Namespace: "ns", Name: "m-" + k}) // want "MetricID built inside a loop" "string concatenation"
	}
	return out
}
