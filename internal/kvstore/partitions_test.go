package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPartitionsDefaultOff(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 10, RCU: 10}, nil)
	if tb.Partitions() != 1 {
		t.Fatalf("Partitions = %d, want 1", tb.Partitions())
	}
}

func TestSetPartitionsValidation(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 10, RCU: 10}, nil)
	if err := tb.SetPartitions(0); err == nil {
		t.Fatal("0 partitions accepted")
	}
	if err := tb.SetPartitions(4); err != nil {
		t.Fatal(err)
	}
	if tb.Partitions() != 4 {
		t.Fatalf("Partitions = %d, want 4", tb.Partitions())
	}
	if _, err := NewTable(Config{Name: "t", WCU: 10, RCU: 10, Partitions: 8}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHotKeyThrottlesDespiteAggregateHeadroom(t *testing.T) {
	// 40 WCU over 4 partitions = 10 WCU per partition per second. A
	// single hot key can therefore write at most 10 units/s even though
	// the table as a whole could absorb 40.
	tb := mustTable(t, Config{Name: "t", WCU: 40, RCU: 40, Partitions: 4}, nil)
	var ok, throttled int
	for i := 0; i < 40; i++ {
		if err := tb.PutItem("hot-key", []byte("x")); err != nil {
			if !errors.Is(err, ErrThrottled) {
				t.Fatalf("unexpected error: %v", err)
			}
			throttled++
		} else {
			ok++
		}
	}
	if ok != 10 {
		t.Fatalf("hot key accepted %d writes, want 10 (one partition's slice)", ok)
	}
	if throttled != 30 {
		t.Fatalf("throttled = %d, want 30", throttled)
	}
}

func TestSpreadKeysUseFullAggregate(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 40, RCU: 40, Partitions: 4}, nil)
	var ok int
	for i := 0; i < 200; i++ {
		if err := tb.PutItem(fmt.Sprintf("key-%d", i), []byte("x")); err == nil {
			ok++
		}
	}
	// Hash imbalance keeps this below the 40 aggregate but far above one
	// partition's 10.
	if ok < 25 {
		t.Fatalf("spread keys accepted %d writes, want >= 25", ok)
	}
}

func TestPartitionBurstBanksAndCaps(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 40, RCU: 40, Partitions: 4}, nil)
	// Three quiet seconds bank 3×10 unit-seconds per partition.
	for i := 0; i < 3; i++ {
		tb.Tick(time.Unix(int64(i), 0), time.Second)
	}
	var ok int
	for i := 0; i < 60; i++ {
		if err := tb.PutItem("hot-key", []byte("x")); err == nil {
			ok++
		}
	}
	if ok != 10+30 { // slice budget + banked partition burst
		t.Fatalf("hot key accepted %d with burst, want 40", ok)
	}
	// Cap: burst never exceeds 300s of the partition slice.
	for i := 0; i < 1000; i++ {
		tb.Tick(time.Unix(int64(10+i), 0), time.Second)
	}
	p := &tb.partitions[partitionFor("hot-key", 4)]
	if max := 10.0 * BurstSeconds; p.writeBurst > max+1e-9 {
		t.Fatalf("partition burst %v exceeds cap %v", p.writeBurst, max)
	}
}

func TestPartitionReadThrottling(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 40, RCU: 8, Partitions: 4}, nil)
	// 8 RCU / 4 partitions = 2 reads per partition per second.
	if acc, rej := tb.ReadItemsUniform(t0, 20, 1); acc != 8 || rej != 12 {
		t.Fatalf("accepted/throttled = %d/%d, want 8/12", acc, rej)
	}
	// A saturated tick banks nothing; three quiet ones bank 3×2 per partition.
	for i := 0; i < 4; i++ {
		tb.Tick(time.Unix(int64(i), 0), time.Second)
	}
	if acc, rej := tb.ReadItemsUniform(t0, 40, 1); acc != 8+24 || rej != 8 {
		t.Fatalf("accepted/throttled with burst = %d/%d, want 32/8", acc, rej)
	}
	// Cap: read burst never exceeds 300s of the partition slice.
	for i := 0; i < 1000; i++ {
		tb.Tick(time.Unix(int64(10+i), 0), time.Second)
	}
	for i := range tb.partitions {
		if max := 2.0 * BurstSeconds; tb.partitions[i].readBurst > max+1e-9 {
			t.Fatalf("partition %d read burst %v exceeds cap %v", i, tb.partitions[i].readBurst, max)
		}
	}
}

func TestPartitionRoutingStable(t *testing.T) {
	a := partitionFor("user-123", 8)
	b := partitionFor("user-123", 8)
	if a != b {
		t.Fatal("routing not deterministic")
	}
	if partitionFor("x", 1) != 0 {
		t.Fatal("single partition must route to 0")
	}
	// All partitions reachable over many keys.
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[partitionFor(fmt.Sprintf("k%d", i), 8)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("only %d of 8 partitions reachable", len(seen))
	}
}
