package timeseries_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

// TestDefaultFlowValueEncodings pins which series of a default flow
// advanced 6 h (2,161 points each) end run-encoded: the 15 that are
// constant or change a few hundred times at most, while the 14 that
// change on nearly every tick end explicit.
func TestDefaultFlowValueEncodings(t *testing.T) {
	spec, err := flow.DefaultClickstream(3000)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7} {
		h, err := sim.New(spec, sim.Options{Seed: seed})
		if err == nil {
			err = h.Advance(6*time.Hour + 10*time.Second)
		}
		if err != nil {
			t.Fatal(err)
		}
		var encoded, explicit []string
		h.Store.Each(func(id metricstore.MetricID, v timeseries.View) {
			name := id.Namespace + "/" + id.Name
			if runs, ok := timeseries.Runs(v); ok {
				if runs > 300 {
					t.Errorf("seed %d: %s holds %d runs", seed, name, runs)
				}
				encoded = append(encoded, id.Name)
			} else {
				explicit = append(explicit, id.Name)
			}
		})
		sort.Strings(encoded)
		want := []string{
			"BacklogRecords", "ConsumedReadCapacityUnits", "HourlyRunRate", "ItemCount",
			"PendingTuples", "ProvisionedReadCapacityUnits", "ProvisionedWriteCapacityUnits",
			"ReadThrottleEvents", "ReadUtilization", "RejectedRecords", "ShardCount", "TickCost",
			"VMCount", "WriteProvisionedThroughputExceeded", "WriteThrottleEvents",
		}
		if strings.Join(encoded, " ") != strings.Join(want, " ") || len(explicit) != 14 {
			t.Errorf("seed %d: run-encoded %v, explicit %v; want run-encoded %v and 14 explicit", seed, encoded, explicit, want)
		}
	}
}
