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

func TestPutAndGetRoundTrip(t *testing.T) {
	s := mustNew(t, 2, nil)
	seq1, err := s.PutRecord(t0, "user-1", []byte("click-a"))
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := s.PutRecord(t0, "user-1", []byte("click-b"))
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq1 {
		t.Fatalf("sequence numbers not increasing: %d then %d", seq1, seq2)
	}
	recs := s.DrainAll(10)
	if len(recs) != 2 {
		t.Fatalf("drained %d records, want 2", len(recs))
	}
	if string(recs[0].Data) != "click-a" || string(recs[1].Data) != "click-b" {
		t.Fatalf("record order/content wrong: %q %q", recs[0].Data, recs[1].Data)
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
		_, err := s.PutRecord(t0, fmt.Sprintf("k%d", i), []byte("x"))
		if err != nil {
			if !errors.Is(err, ErrThroughputExceeded) {
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
	big := make([]byte, 512*1024) // 0.5 MiB
	for i := 0; i < 2; i++ {
		if _, err := s.PutRecord(t0, fmt.Sprintf("k%d", i), big); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Third half-MiB record exceeds the 1 MiB/s shard byte budget.
	if _, err := s.PutRecord(t0, "k2", big); !errors.Is(err, ErrThroughputExceeded) {
		t.Fatalf("expected byte-limit throttle, got %v", err)
	}
}

func TestTickResetsBudgetsAndScalesWithStep(t *testing.T) {
	s := mustNew(t, 1, nil)
	for i := 0; i < 1000; i++ {
		if _, err := s.PutRecord(t0, fmt.Sprintf("k%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.PutRecord(t0, "overflow", nil); err == nil {
		t.Fatal("expected throttle at limit")
	}
	s.DrainAll(1 << 20)
	s.Tick(t0.Add(time.Minute), time.Minute) // budget now 60_000 records
	for i := 0; i < 5000; i++ {
		if _, err := s.PutRecord(t0.Add(time.Minute), fmt.Sprintf("m%d", i), nil); err != nil {
			t.Fatalf("put after minute tick: %v", err)
		}
	}
}

func TestUpdateShardCountPreservesRecords(t *testing.T) {
	s := mustNew(t, 1, nil)
	keys := map[string]bool{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		keys[k] = true
		if _, err := s.PutRecord(t0, k, []byte("d")); err != nil {
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
	recs := s.DrainAll(1 << 20)
	if len(recs) != 100 {
		t.Fatalf("records after reshard = %d, want 100", len(recs))
	}
	for _, r := range recs {
		if !keys[r.PartitionKey] {
			t.Fatalf("unexpected key %q after reshard", r.PartitionKey)
		}
		delete(keys, r.PartitionKey)
	}
	if len(keys) != 0 {
		t.Fatalf("%d keys lost in reshard", len(keys))
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
		s.PutRecord(t0, fmt.Sprintf("k%d", i), []byte("abcd"))
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
		sh := s.shardFor(key)
		h := hashKey(key)
		return h >= sh.HashStart && h <= sh.HashEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: resharding never loses or duplicates buffered records.
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
			if _, err := s.PutRecord(t0, fmt.Sprintf("k%d", k), nil); err == nil {
				put++
			}
		}
		if err := s.UpdateShardCount(to); err != nil {
			return false
		}
		return len(s.DrainAll(1<<20)) == put
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyDistributionIsBalanced(t *testing.T) {
	s := mustNew(t, 4, nil)
	counts := make(map[string]int)
	for i := 0; i < 40000; i++ {
		sh := s.shardFor(fmt.Sprintf("user-%d", i))
		counts[sh.ID]++
	}
	for id, c := range counts {
		if c < 8000 || c > 12000 { // within ±20% of the 10000 ideal
			t.Fatalf("shard %s received %d of 40000 keys; distribution too skewed", id, c)
		}
	}
}

func TestMaxShardUtilizationDetectsHotShard(t *testing.T) {
	ms := metricstore.NewStore()
	s := mustNew(t, 4, ms)
	// Hammer one key: one shard takes all 500 records, the rest idle.
	for i := 0; i < 500; i++ {
		if _, err := s.PutRecord(t0, "hot-user", []byte("x")); err != nil {
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
