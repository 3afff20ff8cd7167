package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Sizing constants. They were read off HEAD on a 2-core box (README,
// "Sizing") and are fixed here, never derived at run time, so two commits
// are always offered the same load.
const (
	paceRate   = 40.0                   // simulated seconds per wall second
	wallTick   = 250 * time.Millisecond // pacer tick: one 10 s sim step per tick at paceRate
	simStep    = 10 * time.Second
	preAdvance = 6 * time.Hour // history given to every dashboard-read flow
)

// sizing is one workload's fleet and rates. Rates are requests per second
// across all request connections of the open-loop phase.
type sizing struct {
	name, why string

	paced      int // fresh flows created paced: the stable tick fleet
	still      int // flows advanced preAdvance and left unpaced: reads on them are checked bit for bit
	moving     int // flows advanced preAdvance and then paced
	pool       int // starting size of the churn pool over all generators (floor 2/3, cap 4/3)
	mutateRate float64
	statusRate float64
	readRate   float64
}

var workloads = []sizing{
	{
		name: "mutate", why: "control-plane churn: every request crosses httpapi, registry and one WAL write+fsync; tick and query layers nearly idle",
		paced: 100, pool: 48, mutateRate: 300,
	},
	{
		name: "fleet", why: "500 paced flows into one watcher: sched, advance, metric appends, event bus and SSE do the work; persist and query idle",
		paced: 500, statusRate: 150,
	},
	{
		name: "read", why: "dashboard queries over 2M points beside live appends: query, metricstore views and JSON/gzip encode; persist idle",
		paced: 84, still: 16, moving: 16, readRate: 150,
	},
	{
		name: "mixed", why: "all three paths at reduced rates on one store: shows a gain for one use that costs another through locks, fsync and GC",
		paced: 192, still: 8, moving: 8, pool: 24, mutateRate: 100, readRate: 60,
	},
}

func workloadByName(name string) (sizing, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return sizing{}, false
}

// shrink scales a workload down to a miniature for the package test: the
// same code paths over a few flows.
func (s sizing) shrink(maxFlows int) sizing {
	cut := func(n, to int) int {
		if n > to {
			return to
		}
		return n
	}
	s.paced = cut(s.paced, maxFlows)
	s.still = cut(s.still, 2)
	s.moving = cut(s.moving, 2)
	s.pool = cut(s.pool, 8)
	return s
}

// stream is one request class mix at a fixed rate.
type stream struct {
	rate   float64 // requests per second over all generators driving the phase
	next   func() op
	jitter *rand.Rand // where inside its interval each request falls due
}

// plan is a workload instantiated under a seed for a number of request
// generators. Generator g is only ever driven by one goroutine.
type plan struct {
	size   sizing
	prefix string

	stable []flowDef // flows whose ticks the watcher times (paced for the whole run)
	still  []flowDef
	moving []flowDef

	setup   [][]op     // setup stages; a stage starts when the one before is acknowledged
	gens    [][]stream // per generator
	mutGens []*mutGen
	ref     *reference
}

// newPlan builds the seeded plan. gens is the number of request
// generators (the closed-loop phase drives all of them, the open-loop
// phase all but one, whose connection the watcher uses).
func newPlan(size sizing, seed int64, gens int) (*plan, error) {
	p := &plan{size: size, prefix: fmt.Sprintf("s%d-", seed)}
	rng := newRNG(seed, 0x666c)
	fresh := makeDefs(rng, p.prefix+"fp-", size.paced)
	p.still = makeDefs(rng, p.prefix+"ru-", size.still)
	p.moving = makeDefs(rng, p.prefix+"rp-", size.moving)
	p.stable = append(append([]flowDef(nil), fresh...), p.moving...)

	var create, advance, pace []op
	for _, d := range fresh {
		create = append(create, createOp(d, paceRate, nil))
	}
	for _, d := range append(append([]flowDef(nil), p.still...), p.moving...) {
		create = append(create, createOp(d, 0, nil))
		advance = append(advance, advanceOp(d.ID, preAdvance))
	}
	for _, d := range p.moving {
		pace = append(pace, paceOp(d.ID, true, nil))
	}

	if len(p.still) > 0 { // reads on still flows are held to an in-bench reference
		ref, err := newReference(p.still, preAdvance)
		if err != nil {
			return nil, err
		}
		p.ref = ref
	}

	p.gens = make([][]stream, gens)
	for g := 0; g < gens; g++ {
		if size.mutateRate > 0 {
			per := size.pool / gens
			if per < 3 {
				per = 3
			}
			mg := newMutGen(seed+int64(g)*7919, fmt.Sprintf("%sm%d-", p.prefix, g), per, per*2/3, per*4/3)
			p.mutGens = append(p.mutGens, mg)
			create = append(create, mg.setup()...)
			p.gens[g] = append(p.gens[g], stream{rate: size.mutateRate, next: mg.next, jitter: newRNG(seed+int64(g), 0x6a31)})
		}
		if size.statusRate > 0 {
			sg := &statusGen{rng: newRNG(seed+int64(g), 0x7374), flows: p.stable}
			p.gens[g] = append(p.gens[g], stream{rate: size.statusRate, next: sg.next, jitter: newRNG(seed+int64(g), 0x6a32)})
		}
		if size.readRate > 0 {
			rg := &readGen{rng: newRNG(seed+int64(g), 0x7264), still: p.still, moving: p.moving,
				stillGlob: p.prefix + "ru-*", movingGlob: p.prefix + "rp-*", ref: p.ref}
			p.gens[g] = append(p.gens[g], stream{rate: size.readRate, next: rg.next, jitter: newRNG(seed+int64(g), 0x6a33)})
		}
	}
	p.setup = [][]op{create, advance, pace}
	return p, nil
}

func (p *plan) close() {
	if p.ref != nil {
		p.ref.close()
	}
}

// expected is the acknowledged state the daemon must hold after recovery:
// every live flow with its pacer flag and tuned knobs.
func (p *plan) expected() map[string]*flowModel {
	out := map[string]*flowModel{}
	for _, d := range p.stable {
		out[d.ID] = &flowModel{def: d, paced: true}
	}
	for _, d := range p.still {
		out[d.ID] = &flowModel{def: d}
	}
	for _, g := range p.mutGens {
		for _, m := range g.pool {
			out[m.def.ID] = m
		}
	}
	return out
}
