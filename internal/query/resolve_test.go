package query

import (
	"math/rand/v2"
	"path"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metricstore"
)

// countingSource is a StaticSource that counts walks of its flow list.
type countingSource struct {
	StaticSource
	walks int
}

func (s *countingSource) FlowIDs() []string { s.walks++; return s.StaticSource.FlowIDs() }

// TestResolveSelectMatchesNaiveFilter: flow resolution — a literal id by
// its own lookup, a glob by one walk of the flow list — picks exactly the
// flows, in the same order, that a naive filter over the sorted ids picks,
// on random id sets and selectors: literal ids present and absent, globs,
// and the empty selector. A literal id never walks the flow list.
func TestResolveSelectMatchesNaiveFilter(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	randStr := func(chars string, n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.IntN(len(chars))]
		}
		return string(b)
	}
	const idChars = "ab-1."
	now := time.Unix(1_700_000_000, 0).UTC()
	for trial := 0; trial < 300; trial++ {
		src := &countingSource{StaticSource: StaticSource{}}
		for n := rng.IntN(12); len(src.StaticSource) < n; {
			st := metricstore.NewStore()
			storePut(st, "sys", "cpu", nil, now, 1)
			src.StaticSource[randStr(idChars, 1+rng.IntN(4))] = StaticFlow{Store: st, Now: now}
		}
		ids := src.StaticSource.FlowIDs()
		sels := []string{"", "*", randStr(idChars, 1+rng.IntN(4)), randStr(idChars+"**", rng.IntN(7))}
		if len(ids) > 0 {
			sels = append(sels, ids[rng.IntN(len(ids))])
		}
		for _, sel := range sels {
			var want []string
			for _, id := range ids {
				// path.Match is an independent glob oracle here: ids and
				// selectors hold no '/', '?', '[' or '\\'.
				if ok, _ := path.Match(sel, id); ok || sel == "" {
					want = append(want, id)
				}
			}
			walks := src.walks
			sd, err := resolveSelect(src, selectSpec{flow: sel, ns: "sys", name: "cpu"})
			if err != nil {
				t.Fatalf("ids %v, flow=%q: %v", ids, sel, err)
			}
			var got []string
			for _, g := range sd.groups {
				got = append(got, g.flow)
			}
			if !slices.Equal(got, want) || sd.series != len(want) {
				t.Fatalf("ids %v, flow=%q: resolved %v (%d series), want %v", ids, sel, got, sd.series, want)
			}
			if sel != "" && !strings.Contains(sel, "*") && src.walks != walks {
				t.Fatalf("ids %v: literal flow=%q walked the flow list", ids, sel)
			}
		}
	}
}
