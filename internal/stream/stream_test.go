package stream

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metricstore"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

func mustNew(t *testing.T, shards int, store *metricstore.Store) *Stream {
	t.Helper()
	s, err := New("clicks", shards, store)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", 1, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New("s", 0, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	s := mustNew(t, 4, nil)
	if s.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", s.ShardCount())
	}
}

func TestShardRangesTileHashSpace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 100} {
		s := mustNew(t, n, nil)
		shards := s.Shards()
		if shards[0].HashStart != 0 {
			t.Fatalf("n=%d: first range starts at %d", n, shards[0].HashStart)
		}
		if shards[n-1].HashEnd != math.MaxUint64 {
			t.Fatalf("n=%d: last range ends at %d", n, shards[n-1].HashEnd)
		}
		for i := 1; i < n; i++ {
			if shards[i].HashStart != shards[i-1].HashEnd+1 {
				t.Fatalf("n=%d: gap/overlap between shard %d and %d", n, i-1, i)
			}
		}
	}
}

// put offers one record keyed by key's hash.
func put(s *Stream, key string, size int) error { return s.PutRecord(hashKey(key), size) }

func TestPutAndGetRoundTrip(t *testing.T) {
	s := mustNew(t, 2, nil)
	for _, size := range []int{7, 7} {
		if err := put(s, "user-1", size); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.BacklogRecords(); got != 2 {
		t.Fatalf("backlog = %d after two puts, want 2", got)
	}
	if got := s.DrainCount(10); got != 2 {
		t.Fatalf("drained %d records, want 2", got)
	}
	if s.BacklogRecords() != 0 {
		t.Fatalf("backlog = %d after drain, want 0", s.BacklogRecords())
	}
}

func TestThrottlingAtShardRecordLimit(t *testing.T) {
	s := mustNew(t, 1, nil)
	var throttled int
	// Offer 1200 records in one 1s tick against a 1000 records/s shard.
	for i := 0; i < 1200; i++ {
		if err := put(s, fmt.Sprintf("k%d", i), 1); err != nil {
			if err != ErrThroughputExceeded {
				t.Fatalf("unexpected error type: %v", err)
			}
			throttled++
		}
	}
	if throttled != 200 {
		t.Fatalf("throttled = %d, want 200", throttled)
	}
	if got := s.BacklogRecords(); got != 1000 {
		t.Fatalf("accepted backlog = %d, want 1000", got)
	}
}

func TestThrottlingAtShardByteLimit(t *testing.T) {
	s := mustNew(t, 1, nil)
	const big = 512 * 1024 // 0.5 MiB
	for i := 0; i < 2; i++ {
		if err := put(s, fmt.Sprintf("k%d", i), big); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Third half-MiB record exceeds the 1 MiB/s shard byte budget.
	if err := put(s, "k2", big); !errors.Is(err, ErrThroughputExceeded) {
		t.Fatalf("expected byte-limit throttle, got %v", err)
	}
}

func TestTickResetsBudgetsAndScalesWithStep(t *testing.T) {
	s := mustNew(t, 1, nil)
	for i := 0; i < 1000; i++ {
		if err := put(s, fmt.Sprintf("k%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := put(s, "overflow", 0); err == nil {
		t.Fatal("expected throttle at limit")
	}
	s.DrainCount(1 << 20)
	s.Tick(t0.Add(time.Minute), time.Minute) // budget now 60_000 records
	for i := 0; i < 5000; i++ {
		if err := put(s, fmt.Sprintf("m%d", i), 0); err != nil {
			t.Fatalf("put after minute tick: %v", err)
		}
	}
}

func TestUpdateShardCountPreservesRecords(t *testing.T) {
	s := mustNew(t, 1, nil)
	for i := 0; i < 100; i++ {
		if err := put(s, fmt.Sprintf("key-%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.UpdateShardCount(8); err != nil {
		t.Fatal(err)
	}
	if s.ShardCount() != 8 {
		t.Fatalf("ShardCount = %d, want 8", s.ShardCount())
	}
	if s.ReshardEvents() != 1 {
		t.Fatalf("ReshardEvents = %d, want 1", s.ReshardEvents())
	}
	if got := s.BacklogRecords(); got != 100 {
		t.Fatalf("backlog after reshard = %d, want 100", got)
	}
	if got := s.DrainCount(1 << 20); got != 100 {
		t.Fatalf("records drained after reshard = %d, want 100", got)
	}
}

func TestUpdateShardCountValidation(t *testing.T) {
	s := mustNew(t, 2, nil)
	if err := s.UpdateShardCount(0); err == nil {
		t.Fatal("zero shard count accepted")
	}
	if err := s.UpdateShardCount(2); err != nil {
		t.Fatal(err)
	}
	if s.ReshardEvents() != 0 {
		t.Fatal("no-op reshard counted as event")
	}
}

func TestCapacityScalesWithShards(t *testing.T) {
	s := mustNew(t, 3, nil)
	if got := s.WriteCapacityPerSecond(); got != 3000 {
		t.Fatalf("capacity = %v, want 3000", got)
	}
	if err := s.UpdateShardCount(10); err != nil {
		t.Fatal(err)
	}
	if got := s.WriteCapacityPerSecond(); got != 10000 {
		t.Fatalf("capacity = %v, want 10000", got)
	}
}

func TestMetricsPublishedOnTick(t *testing.T) {
	ms := metricstore.NewStore()
	s := mustNew(t, 2, ms)
	for i := 0; i < 2500; i++ { // 2 shards * 1000/s: some throttling likely
		put(s, fmt.Sprintf("k%d", i), 4)
	}
	s.Tick(t0, time.Second)

	d := map[string]string{"StreamName": "clicks"}
	in, ok := storeLatest(ms, Namespace, MetricIncomingRecords, d)
	if !ok || in.V != 2500 {
		t.Fatalf("IncomingRecords = %+v ok=%v, want 2500", in, ok)
	}
	th, _ := storeLatest(ms, Namespace, MetricThrottledWrites, d)
	util, _ := storeLatest(ms, Namespace, MetricWriteUtilization, d)
	offered, _ := storeLatest(ms, Namespace, MetricOfferedUtilization, d)
	if offered.V != 125 {
		t.Fatalf("OfferedLoadUtilization = %v, want 125", offered.V)
	}
	if want := (2500 - th.V) / 2000 * 100; math.Abs(util.V-want) > 1e-9 {
		t.Fatalf("WriteUtilization = %v, want %v", util.V, want)
	}
	sc, _ := storeLatest(ms, Namespace, MetricShardCount, d)
	if sc.V != 2 {
		t.Fatalf("ShardCount metric = %v, want 2", sc.V)
	}

	// Second tick with no traffic publishes zeros.
	s.Tick(t0.Add(time.Second), time.Second)
	in2, _ := storeLatest(ms, Namespace, MetricIncomingRecords, d)
	if in2.V != 0 {
		t.Fatalf("IncomingRecords after quiet tick = %v, want 0", in2.V)
	}
}

// Property: every partition key routes to exactly one shard whose hash
// range contains the key's hash, for any shard count.
func TestRoutingProperty(t *testing.T) {
	f := func(key string, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		s, err := New("p", n, nil)
		if err != nil {
			return false
		}
		h := hashKey(key)
		sh := s.shardFor(h)
		return h >= sh.HashStart && h <= sh.HashEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: resharding never loses or duplicates backlogged records.
func TestReshardConservationProperty(t *testing.T) {
	f := func(keysRaw []uint16, fromRaw, toRaw uint8) bool {
		from := int(fromRaw%8) + 1
		to := int(toRaw%8) + 1
		s, err := New("p", from, nil)
		if err != nil {
			return false
		}
		put := 0
		for _, k := range keysRaw {
			if err := s.PutRecord(uint64(k)<<48, 0); err == nil {
				put++
			}
		}
		if err := s.UpdateShardCount(to); err != nil {
			return false
		}
		return s.BacklogRecords() == put && s.DrainCount(1<<20) == put && s.BacklogRecords() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyDistributionIsBalanced(t *testing.T) {
	s := mustNew(t, 4, nil)
	counts := make(map[*Shard]int)
	for i := 0; i < 40000; i++ {
		counts[s.shardFor(hashKey(fmt.Sprintf("user-%d", i)))]++
	}
	for i, sh := range s.Shards() {
		if c := counts[sh]; c < 8000 || c > 12000 { // within ±20% of the 10000 ideal
			t.Fatalf("shard %d received %d of 40000 keys; distribution too skewed", i, c)
		}
	}
}

func TestMaxShardUtilizationDetectsHotShard(t *testing.T) {
	ms := metricstore.NewStore()
	s := mustNew(t, 4, ms)
	// Hammer one key: one shard takes all 500 records, the rest idle.
	for i := 0; i < 500; i++ {
		if err := put(s, "hot-user", 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Tick(t0, time.Second)
	d := map[string]string{"StreamName": "clicks"}
	maxUtil, ok := storeLatest(ms, Namespace, MetricMaxShardUtilization, d)
	if !ok || math.Abs(maxUtil.V-50) > 1e-9 {
		t.Fatalf("MaxShardUtilization = %v ok=%v, want 50 (hot shard at half its limit)", maxUtil.V, ok)
	}
	agg, _ := storeLatest(ms, Namespace, MetricWriteUtilization, d)
	if agg.V >= maxUtil.V {
		t.Fatalf("aggregate util %v should be far below hot-shard util %v", agg.V, maxUtil.V)
	}
}
