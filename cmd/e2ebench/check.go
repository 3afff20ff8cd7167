package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// checkRecovery is the durability epilogue: the caller has SIGKILLed the
// daemon; this restarts it over the same data directory and requires the
// recovered plane to equal the generator's model of acknowledged
// mutations — the same flows, pacers armed at the same pace, controllers
// holding the last acknowledged knobs. It returns the time from exec to
// the first answered request.
//
// One difference is reported as a finding, not a failure: a flow whose
// delete was acknowledged coming back. HEAD has a race that produces it
// about once in thirty mutate runs (README, "Findings on HEAD"), and a
// benchmark whose runs are incorrect at that rate cannot gate anything;
// the count is still printed and reported as persist.resurrected_flows.
func checkRecovery(ctx context.Context, bin, dataDir string, want map[string]*flowModel) (rec recovery, err error) {
	t, err := startDaemon(bin, dataDir)
	if err != nil {
		return rec, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer t.kill()
	rec.ms = float64(time.Since(t.started)) / 1e6
	cn := t.newConn()
	defer cn.close()

	flows, err := cn.c.ListFlows(ctx)
	if err != nil {
		return rec, fmt.Errorf("list recovered flows: %w", err)
	}
	fail := func(format string, args ...any) {
		if len(rec.failures) < 10 {
			rec.failures = append(rec.failures, "recovery: "+fmt.Sprintf(format, args...))
		} else if len(rec.failures) == 10 {
			rec.failures = append(rec.failures, "recovery: further differences elided")
		}
	}
	got := map[string]bool{}
	for _, f := range flows {
		got[f.ID] = true
		m, ok := want[f.ID]
		switch {
		case f.ID == "clickstream": // flowerd's own boot flow
		case !ok:
			rec.resurrected = append(rec.resurrected, f.ID)
		case f.Paced != m.paced || (m.paced && f.Pace != paceRate):
			fail("flow %s pacer = (paced %v, pace %v), acknowledged paced %v", f.ID, f.Paced, f.Pace, m.paced)
		}
	}
	ids := make([]string, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !got[id] {
			fail("flow %s was acknowledged but did not come back", id)
			continue
		}
		m := want[id]
		if len(m.tunes) == 0 {
			continue
		}
		layers, err := cn.c.Layers(ctx, id)
		if err != nil {
			return rec, fmt.Errorf("layers of %s: %w", id, err)
		}
		for _, l := range layers {
			t := m.tunes[string(l.Kind)]
			if t == nil || l.Controller == nil {
				continue
			}
			c := l.Controller
			if (t.ref != nil && c.Ref != *t.ref) || (t.window != nil && c.Window != *t.window) || (t.deadBand != nil && c.DeadBand != *t.deadBand) {
				fail("flow %s layer %s controller = %+v, acknowledged ref %v window %v dead_band %v",
					id, l.Kind, *c, deref(t.ref), deref(t.window), deref(t.deadBand))
			}
		}
	}
	return rec, nil
}

// recovery is what the restart after SIGKILL showed.
type recovery struct {
	ms          float64  // exec to first answered request
	failures    []string // acknowledged state that did not survive
	resurrected []string // flows back although their delete was acknowledged
}

func (r recovery) findings() []string {
	if len(r.resurrected) == 0 {
		return nil
	}
	return []string{fmt.Sprintf("recovery: %d flow(s) came back although their delete was acknowledged (%s): the checkpoint race on HEAD, see README",
		len(r.resurrected), r.resurrected[0])}
}

func deref[T any](p *T) any {
	if p == nil {
		return "-"
	}
	return *p
}

// pacedInterval is a stretch of wall time a churn-pool flow spent paced.
type pacedInterval struct{ from, to time.Time }

// demandedTicks is the number of pacer intervals the scheduler owed
// between two instants: the stable fleet for the whole stretch plus every
// churn-pool pacing interval clipped to it. A pacer's first tick comes
// between half and one whole interval after it is armed (the scheduler
// spreads first fires by id hash), so a pacing stretch that began inside
// the window owes three quarters of a tick less than its length.
func demandedTicks(nStable int, pool []pacedInterval, t0, t1 time.Time) (ticks float64, pacers int) {
	ticks = float64(nStable) * t1.Sub(t0).Seconds() / wallTick.Seconds()
	pacers = nStable
	for _, iv := range pool {
		from, to := iv.from, iv.to
		if to.IsZero() || to.After(t1) {
			to = t1
		}
		if from.Before(t0) {
			from = t0
		}
		if to.After(from) {
			owed := to.Sub(from).Seconds() / wallTick.Seconds()
			if iv.from.After(t0) {
				owed = max(0, owed-0.75)
			}
			ticks += owed
			pacers++
		}
	}
	return ticks, pacers
}
