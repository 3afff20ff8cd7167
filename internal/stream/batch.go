package stream

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Aggregate (count-based) ingest. PutRecord routes and throttles one
// record at a time, which costs O(records) per tick; experiment runs push
// 10^8 records, which dominates the whole benchmark suite. PutCounts below
// carries the same per-shard accounting — record and byte budgets, throttle
// counts, utilisation metrics, backlog — for a whole tick's per-shard
// arrival counts. The caller supplies those counts (the workload generator
// samples them multinomially from the key-population weights, which is
// exactly the distribution the per-record path induces; see
// internal/randx). Both paths share each shard's budgets and backlog, so
// they can be mixed freely on one stream.

// PutCounts offers counts[i] records of avgBytes each to shard i. Each
// shard accepts records up to its per-tick record and byte budgets; the
// excess is throttled. It returns the totals accepted and throttled, and an
// error only if the counts vector does not match the shard layout.
func (s *Stream) PutCounts(now time.Time, counts []int, avgBytes int) (accepted, throttled int, err error) {
	if len(counts) != len(s.shards) {
		return 0, 0, fmt.Errorf("stream: PutCounts got %d shard counts for %d shards", len(counts), len(s.shards))
	}
	if avgBytes < 0 {
		avgBytes = 0
	}
	recBudget := int(MaxRecordsPerShardPerSecond * s.stepSeconds)
	byteBudget := int(MaxBytesPerShardPerSecond * s.stepSeconds)
	for i, n := range counts {
		if n <= 0 {
			continue
		}
		sh := s.shards[i]
		s.tickIncoming += n
		s.tickBytes += n * avgBytes
		ok := recBudget - sh.tickRecords
		if avgBytes > 0 {
			if byBytes := (byteBudget - sh.tickBytes) / avgBytes; byBytes < ok {
				ok = byBytes
			}
		}
		if ok < 0 {
			ok = 0
		}
		if ok > n {
			ok = n
		}
		sh.tickRecords += ok
		sh.tickBytes += ok * avgBytes
		sh.backlog += ok
		accepted += ok
		rej := n - ok
		s.tickThrottled += rej
		throttled += rej
	}
	return accepted, throttled, nil
}

// DrainCount consumes up to max backlog records across all shards,
// returning how many were consumed. It is the analytics layer's spout,
// which needs only tuple counts.
func (s *Stream) DrainCount(max int) int {
	drained := 0
	for _, sh := range s.shards {
		n := min(sh.backlog, max-drained)
		if n <= 0 {
			continue
		}
		sh.backlog -= n
		drained += n
	}
	return drained
}

// KeyPopulation is a precomputed set of partition-key hashes. The
// per-record path reads key i's hash from it (Hash); the aggregate path
// derives per-shard arrival weights from it: with keys drawn uniformly from
// the population, the probability a record lands on a shard equals the
// fraction of the population hashing into that shard's range.
//
// A KeyPopulation is immutable once built: no method writes to it, so one
// instance may be shared by any number of streams and goroutines.
type KeyPopulation struct {
	byKey  []uint64 // hash of keys[i]
	sorted []uint64
}

// NewKeyPopulation hashes the given keys.
func NewKeyPopulation(keys []string) *KeyPopulation {
	h := make([]uint64, len(keys))
	for i, k := range keys {
		h[i] = hashKey(k)
	}
	sorted := slices.Clone(h)
	slices.Sort(sorted)
	return &KeyPopulation{byKey: h, sorted: sorted}
}

// uniformPops memoises UniformUserPopulation by size. The population is a
// pure function of its size, and every flow of a fleet asks for the same
// one on its first tick. Entries are never evicted: sizes come from code
// (workload.GeneratorConfig.Users), not from request input, and one costs
// 16 bytes per key.
var uniformPops struct {
	sync.Mutex
	bySize map[int]*KeyPopulation
}

// UniformUserPopulation returns the population of the click-stream
// generator's user IDs ("user-0" … "user-{n−1}"). There is one instance per
// n in the process, built on first request and shared by every later
// caller; concurrent first requests wait for the one build. It draws no
// randomness, so sharing it cannot perturb any seeded stream.
func UniformUserPopulation(n int) *KeyPopulation {
	uniformPops.Lock()
	defer uniformPops.Unlock()
	if p, ok := uniformPops.bySize[n]; ok {
		return p
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "user-" + strconv.Itoa(i)
	}
	p := NewKeyPopulation(keys)
	if uniformPops.bySize == nil {
		uniformPops.bySize = make(map[int]*KeyPopulation)
	}
	uniformPops.bySize[n] = p
	return p
}

// Size reports the population size.
func (p *KeyPopulation) Size() int { return len(p.byKey) }

// Hash returns the partition-key hash of the population's i-th key.
func (p *KeyPopulation) Hash(i int) uint64 { return p.byKey[i] }

// Weights returns, for each shard, the fraction of the population hashing
// into its range. The weights sum to 1 when the population is non-empty
// (shard ranges tile the hash space).
func (p *KeyPopulation) Weights(shards []*Shard) []float64 {
	w := make([]float64, len(shards))
	hs := p.sorted
	if len(hs) == 0 {
		return w
	}
	total := float64(len(hs))
	for i, sh := range shards {
		lo := sort.Search(len(hs), func(j int) bool { return hs[j] >= sh.HashStart })
		hi := len(hs)
		if sh.HashEnd < ^uint64(0) {
			hi = sort.Search(len(hs), func(j int) bool { return hs[j] > sh.HashEnd })
		}
		w[i] = float64(hi-lo) / total
	}
	return w
}
