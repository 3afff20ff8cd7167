// Package stream implements the ingestion-layer substrate: a sharded
// streaming data service modelled on Amazon Kinesis, which the paper's
// click-stream flow (Fig. 1) uses to absorb raw click events.
//
// The model reproduces the Kinesis properties Flower's control plane
// depends on:
//
//   - capacity is provisioned in shards, each accepting at most 1,000
//     records/s and 1 MiB/s of writes ("given each Shard supports up to
//     1,000 records/second for writes", §3.1);
//   - records are routed to shards by hashing a partition key into a
//     64-bit hash space split into contiguous shard ranges;
//   - writes beyond a shard's capacity are rejected with a provisioned-
//     throughput-exceeded error, which the service also counts as a metric;
//   - the shard count can be changed at runtime (resharding), which is the
//     actuator surface Flower's ingestion controller drives;
//   - per-period metrics (incoming records/bytes, throttles, utilisation)
//     are published to the metric store, which is the sensor surface.
package stream

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/metricstore"
)

// Kinesis-documented per-shard write limits.
const (
	MaxRecordsPerShardPerSecond = 1000
	MaxBytesPerShardPerSecond   = 1 << 20 // 1 MiB
)

// Namespace is the metric namespace the stream publishes under.
const Namespace = "Ingestion/Stream"

// Metric names published each tick.
const (
	MetricIncomingRecords    = "IncomingRecords"
	MetricIncomingBytes      = "IncomingBytes"
	MetricThrottledWrites    = "WriteProvisionedThroughputExceeded"
	MetricShardCount         = "ShardCount"
	MetricWriteUtilization   = "WriteUtilization"       // accepted records / capacity, percent
	MetricOfferedUtilization = "OfferedLoadUtilization" // offered records / capacity, percent
	MetricBacklogRecords     = "BacklogRecords"
	// MetricMaxShardUtilization is the single hottest shard's record
	// utilisation — the hot-shard detection signal: a stream can throttle
	// on one shard while its aggregate utilisation looks healthy.
	MetricMaxShardUtilization = "MaxShardUtilization"
)

// ErrThroughputExceeded is returned by PutRecord when the target shard has
// no write budget left in the current tick, mirroring Kinesis'
// ProvisionedThroughputExceededException.
var ErrThroughputExceeded = errors.New("stream: provisioned throughput exceeded")

// Record is one ingested datum.
type Record struct {
	SequenceNumber uint64
	PartitionKey   string
	Data           []byte
	ArrivedAt      time.Time
}

// Shard is one unit of provisioned stream capacity covering a contiguous
// range of the 64-bit hash space.
type Shard struct {
	ID        string
	HashStart uint64 // inclusive
	HashEnd   uint64 // inclusive

	buffer      []Record // records awaiting consumption
	countBuffer int      // counted (non-materialised) records awaiting consumption
	tickRecords int      // accepted this tick
	tickBytes   int      // accepted bytes this tick
}

// Stream is the simulated sharded stream.
type Stream struct {
	name     string
	shards   []*Shard
	nextSeq  uint64
	shardSeq int // for shard ID generation

	store *metricstore.Store
	dims  map[string]string

	// Per-tick publish handles, resolved once at construction so Tick's
	// metric writes are allocation-free (nil when store is nil).
	mMaxShardUtil *metricstore.Handle
	mIncoming     *metricstore.Handle
	mBytes        *metricstore.Handle
	mThrottled    *metricstore.Handle
	mShardCount   *metricstore.Handle
	mWriteUtil    *metricstore.Handle
	mOfferedUtil  *metricstore.Handle
	mBacklog      *metricstore.Handle

	// Per-tick accounting, reset by Tick.
	tickIncoming  int
	tickBytes     int
	tickThrottled int

	// Step length, needed to scale per-second shard limits to a tick
	// budget. Set on each Tick; defaults to 1s before the first tick so
	// PutRecord works standalone in tests.
	stepSeconds float64

	reshardEvents int
}

// New creates a stream with the given initial shard count, publishing
// metrics to store (which may be nil for standalone use).
func New(name string, shardCount int, store *metricstore.Store) (*Stream, error) {
	if name == "" {
		return nil, fmt.Errorf("stream: name is required")
	}
	if shardCount <= 0 {
		return nil, fmt.Errorf("stream: shard count must be positive, got %d", shardCount)
	}
	s := &Stream{
		name:        name,
		store:       store,
		dims:        map[string]string{"StreamName": name},
		stepSeconds: 1,
	}
	if store != nil {
		s.mMaxShardUtil = store.MustHandle(Namespace, MetricMaxShardUtilization, s.dims)
		s.mIncoming = store.MustHandle(Namespace, MetricIncomingRecords, s.dims)
		s.mBytes = store.MustHandle(Namespace, MetricIncomingBytes, s.dims)
		s.mThrottled = store.MustHandle(Namespace, MetricThrottledWrites, s.dims)
		s.mShardCount = store.MustHandle(Namespace, MetricShardCount, s.dims)
		s.mWriteUtil = store.MustHandle(Namespace, MetricWriteUtilization, s.dims)
		s.mOfferedUtil = store.MustHandle(Namespace, MetricOfferedUtilization, s.dims)
		s.mBacklog = store.MustHandle(Namespace, MetricBacklogRecords, s.dims)
	}
	s.shards = s.makeShards(shardCount)
	return s, nil
}

// makeShards splits the full 64-bit hash space into n near-equal contiguous
// ranges and carries over any buffered records by re-routing them.
func (s *Stream) makeShards(n int) []*Shard {
	shards := make([]*Shard, n)
	span := new(big64).full()
	for i := 0; i < n; i++ {
		lo, hi := span.slice(i, n)
		s.shardSeq++
		shards[i] = &Shard{
			ID:        fmt.Sprintf("shard-%06d", s.shardSeq),
			HashStart: lo,
			HashEnd:   hi,
		}
	}
	return shards
}

// big64 helps split the uint64 space without overflow.
type big64 struct{}

func (big64) full() big64 { return big64{} }

// slice returns the [lo, hi] range of the i-th of n equal partitions of the
// uint64 space.
func (big64) slice(i, n int) (lo, hi uint64) {
	// Use float-free integer arithmetic: width = 2^64 / n computed via
	// (MaxUint64 / n) with remainder spread over the first shards.
	w := math.MaxUint64 / uint64(n)
	lo = uint64(i) * (w + 1)
	if i == n-1 {
		hi = math.MaxUint64
	} else {
		hi = uint64(i+1)*(w+1) - 1
	}
	// Guard against lo overshooting for very large n (not expected in
	// practice: shard counts are small).
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// ShardCount reports the current number of open shards.
func (s *Stream) ShardCount() int { return len(s.shards) }

// ReshardEvents reports how many UpdateShardCount operations have occurred.
func (s *Stream) ReshardEvents() int { return s.reshardEvents }

// Shards returns the open shards (callers must not mutate).
func (s *Stream) Shards() []*Shard { return s.shards }

// hashKey maps a partition key into the 64-bit hash space.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// shardFor locates the shard owning the key's hash.
func (s *Stream) shardFor(key string) *Shard {
	h := hashKey(key)
	// Shards are sorted by range; binary search.
	lo, hi := 0, len(s.shards)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		sh := s.shards[mid]
		switch {
		case h < sh.HashStart:
			hi = mid - 1
		case h > sh.HashEnd:
			lo = mid + 1
		default:
			return sh
		}
	}
	// The ranges tile the space; unreachable unless shards is empty.
	return s.shards[len(s.shards)-1]
}

// PutRecord offers one record to the stream. On success the record is
// buffered on its shard for consumption and its sequence number returned.
// If the shard's write budget for the current tick is exhausted the record
// is rejected with ErrThroughputExceeded and counted as throttled.
func (s *Stream) PutRecord(now time.Time, partitionKey string, data []byte) (uint64, error) {
	s.tickIncoming++
	s.tickBytes += len(data)
	sh := s.shardFor(partitionKey)
	recBudget := int(MaxRecordsPerShardPerSecond * s.stepSeconds)
	byteBudget := int(MaxBytesPerShardPerSecond * s.stepSeconds)
	if sh.tickRecords >= recBudget || sh.tickBytes+len(data) > byteBudget {
		s.tickThrottled++
		return 0, fmt.Errorf("%w: shard %s", ErrThroughputExceeded, sh.ID)
	}
	sh.tickRecords++
	sh.tickBytes += len(data)
	s.nextSeq++
	sh.buffer = append(sh.buffer, Record{
		SequenceNumber: s.nextSeq,
		PartitionKey:   partitionKey,
		Data:           data,
		ArrivedAt:      now,
	})
	return s.nextSeq, nil
}

// DrainAll consumes up to max records across all shards round-robin,
// preserving per-shard order. It is the convenience the analytics layer's
// spout uses.
func (s *Stream) DrainAll(max int) []Record {
	var out []Record
	remaining := max
	for _, sh := range s.shards {
		if remaining <= 0 {
			break
		}
		n := len(sh.buffer)
		if n > remaining {
			n = remaining
		}
		out = append(out, sh.buffer[:n]...)
		sh.buffer = sh.buffer[n:]
		remaining -= n
	}
	return out
}

// BacklogRecords reports the records buffered and not yet consumed,
// including records ingested through the counted batch path.
func (s *Stream) BacklogRecords() int {
	total := 0
	for _, sh := range s.shards {
		total += len(sh.buffer) + sh.countBuffer
	}
	return total
}

// UpdateShardCount reshards the stream to n shards (split or merge). All
// buffered records are re-routed onto the new shards by partition key, so
// no data is lost. This is the actuator Flower's ingestion controller
// calls ("increasing or decreasing number of Shards", §2).
func (s *Stream) UpdateShardCount(n int) error {
	if n <= 0 {
		return fmt.Errorf("stream: shard count must be positive, got %d", n)
	}
	if n == len(s.shards) {
		return nil
	}
	pending := make([]Record, 0, s.BacklogRecords())
	counted := 0
	for _, sh := range s.shards {
		pending = append(pending, sh.buffer...)
		counted += sh.countBuffer
	}
	s.shards = s.makeShards(n)
	for _, r := range pending {
		sh := s.shardFor(r.PartitionKey)
		sh.buffer = append(sh.buffer, r)
	}
	// Counted backlog has no keys to re-route by; spread it evenly (the
	// counted path's populations are near-uniform over the hash space).
	if counted > 0 {
		each, rem := counted/n, counted%n
		for i, sh := range s.shards {
			sh.countBuffer = each
			if i < rem {
				sh.countBuffer++
			}
		}
	}
	s.reshardEvents++
	return nil
}

// WriteCapacityPerSecond reports the aggregate record/s write capacity.
func (s *Stream) WriteCapacityPerSecond() float64 {
	return float64(len(s.shards) * MaxRecordsPerShardPerSecond)
}

// Tick publishes this tick's metrics and resets the per-tick budgets. It
// must run after producers and consumers have acted for the step.
func (s *Stream) Tick(now time.Time, step time.Duration) {
	s.stepSeconds = step.Seconds()
	capacity := s.WriteCapacityPerSecond() * s.stepSeconds
	accepted := s.tickIncoming - s.tickThrottled
	writeUtil := 0.0
	offeredUtil := 0.0
	if capacity > 0 {
		writeUtil = float64(accepted) / capacity * 100
		offeredUtil = float64(s.tickIncoming) / capacity * 100
	}
	maxShardUtil := 0.0
	if perShard := MaxRecordsPerShardPerSecond * s.stepSeconds; perShard > 0 {
		for _, sh := range s.shards {
			if u := float64(sh.tickRecords) / perShard * 100; u > maxShardUtil {
				maxShardUtil = u
			}
		}
	}
	if s.store != nil {
		s.mMaxShardUtil.MustAppend(now, maxShardUtil)
		s.mIncoming.MustAppend(now, float64(s.tickIncoming))
		s.mBytes.MustAppend(now, float64(s.tickBytes))
		s.mThrottled.MustAppend(now, float64(s.tickThrottled))
		s.mShardCount.MustAppend(now, float64(len(s.shards)))
		s.mWriteUtil.MustAppend(now, writeUtil)
		s.mOfferedUtil.MustAppend(now, offeredUtil)
		s.mBacklog.MustAppend(now, float64(s.BacklogRecords()))
	}
	s.tickIncoming = 0
	s.tickBytes = 0
	s.tickThrottled = 0
	for _, sh := range s.shards {
		sh.tickRecords = 0
		sh.tickBytes = 0
	}
}
