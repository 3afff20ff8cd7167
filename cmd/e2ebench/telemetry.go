package main

import (
	"strings"

	apiv1 "repro/api/v1"
)

// Readers over the daemon's own /v1/telemetry output. match maps a label
// name to a required value prefix; nil matches every series of the family.

func telSeries(t apiv1.Telemetry, name string, match map[string]string, fn func(apiv1.Metric)) {
	for _, f := range t.Families {
		if f.Name != name {
			continue
		}
	series:
		for _, m := range f.Metrics {
			for i, label := range f.Labels {
				if want, ok := match[label]; ok && (i >= len(m.LabelValues) || !strings.HasPrefix(m.LabelValues[i], want)) {
					continue series
				}
			}
			fn(m)
		}
	}
}

// telValue sums the matching counter or gauge series.
func telValue(t apiv1.Telemetry, name string, match map[string]string) float64 {
	sum := 0.0
	telSeries(t, name, match, func(m apiv1.Metric) { sum += m.Value })
	return sum
}

// telHist merges the matching histogram series.
func telHist(t apiv1.Telemetry, name string, match map[string]string) apiv1.LatencyHistogram {
	var h apiv1.LatencyHistogram
	telSeries(t, name, match, func(m apiv1.Metric) { h = histMerge(h, m.Histogram) })
	return h
}

// telDelta is the growth of a counter between two scrapes.
func telDelta(before, after apiv1.Telemetry, name string, match map[string]string) float64 {
	return telValue(after, name, match) - telValue(before, name, match)
}

// telHistDelta is the observations a histogram gained between two scrapes.
func telHistDelta(before, after apiv1.Telemetry, name string, match map[string]string) apiv1.LatencyHistogram {
	return histDelta(telHist(after, name, match), telHist(before, name, match))
}
