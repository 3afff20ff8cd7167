package stream

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Aggregate (count-based) ingest. The per-record API (PutRecord/DrainAll)
// models Kinesis faithfully but costs O(records) per tick; experiment runs
// push 10^8 records, which dominates the whole benchmark suite. The batch
// API below carries the same per-shard accounting — record and byte budgets,
// throttle counts, utilisation metrics, backlog — while representing the
// records themselves only as counts. Per-shard arrival counts are supplied
// by the caller (the workload generator samples them multinomially from the
// key-population weights, which is exactly the distribution the per-record
// path induces; see internal/randx). Both paths can be mixed freely on one
// stream: counted and materialised backlog are drained together.

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
		sh.countBuffer += ok
		s.nextSeq += uint64(ok)
		accepted += ok
		rej := n - ok
		s.tickThrottled += rej
		throttled += rej
	}
	return accepted, throttled, nil
}

// DrainCount consumes up to max backlog records across all shards —
// counted backlog first, then materialised records — returning only how
// many were consumed. It is the consumption path for count-based pipelines
// (the analytics layer's spout does not inspect record payloads).
func (s *Stream) DrainCount(max int) int {
	drained := 0
	remaining := max
	for _, sh := range s.shards {
		if remaining <= 0 {
			break
		}
		if n := sh.countBuffer; n > 0 {
			if n > remaining {
				n = remaining
			}
			sh.countBuffer -= n
			remaining -= n
			drained += n
		}
		if remaining <= 0 {
			break
		}
		if n := len(sh.buffer); n > 0 {
			if n > remaining {
				n = remaining
			}
			sh.buffer = sh.buffer[n:]
			remaining -= n
			drained += n
		}
	}
	return drained
}

// KeyPopulation is a precomputed set of partition-key hashes used to derive
// per-shard arrival weights: with keys drawn uniformly from the population,
// the probability a record lands on a shard equals the fraction of the
// population hashing into that shard's range.
//
// A KeyPopulation is immutable once built: no method writes to it, so one
// instance may be shared by any number of streams and goroutines.
type KeyPopulation struct {
	hashes []uint64 // sorted
}

// NewKeyPopulation hashes the given keys.
func NewKeyPopulation(keys []string) *KeyPopulation {
	h := make([]uint64, len(keys))
	for i, k := range keys {
		h[i] = hashKey(k)
	}
	sort.Slice(h, func(i, j int) bool { return h[i] < h[j] })
	return &KeyPopulation{hashes: h}
}

// uniformPops memoises UniformUserPopulation by size. The population is a
// pure function of its size, and every flow of a fleet asks for the same
// one on its first tick. Entries are never evicted: sizes come from code
// (workload.GeneratorConfig.Users), not from request input, and one costs
// 8 bytes per key.
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
func (p *KeyPopulation) Size() int { return len(p.hashes) }

// Weights returns, for each shard, the fraction of the population hashing
// into its range. The weights sum to 1 when the population is non-empty
// (shard ranges tile the hash space).
func (p *KeyPopulation) Weights(shards []*Shard) []float64 {
	w := make([]float64, len(shards))
	if len(p.hashes) == 0 {
		return w
	}
	total := float64(len(p.hashes))
	for i, sh := range shards {
		lo := sort.Search(len(p.hashes), func(j int) bool { return p.hashes[j] >= sh.HashStart })
		hi := len(p.hashes)
		if sh.HashEnd < ^uint64(0) {
			hi = sort.Search(len(p.hashes), func(j int) bool { return p.hashes[j] > sh.HashEnd })
		}
		w[i] = float64(hi-lo) / total
	}
	return w
}
