package kvstore

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/metricstore"
)

var t0 = time.Date(2017, 8, 28, 0, 0, 0, 0, time.UTC)

func mustTable(t *testing.T, cfg Config, ms *metricstore.Store) *Table {
	t.Helper()
	tb, err := NewTable(cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(Config{Name: "", WCU: 10, RCU: 10}, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewTable(Config{Name: "t", WCU: 0, RCU: 10}, nil); err == nil {
		t.Fatal("zero WCU accepted")
	}
	if _, err := NewTable(Config{Name: "t", WCU: 10, RCU: 10, MinWCU: 50, MaxWCU: 20}, nil); err == nil {
		t.Fatal("min>max accepted")
	}
}

func TestPutItemOverwriteKeepsOneItem(t *testing.T) {
	tb := mustTable(t, Config{Name: "agg", WCU: 100, RCU: 100}, nil)
	for _, key := range []string{"page:/home", "page:/home", "page:/cart"} {
		if err := tb.PutItem(key, []byte("42")); err != nil {
			t.Fatal(err)
		}
	}
	if tb.ItemCount() != 2 {
		t.Fatalf("ItemCount = %d, want 2 distinct keys", tb.ItemCount())
	}
}

func TestWriteUnitsBySize(t *testing.T) {
	cases := []struct {
		size int
		want float64
	}{{0, 1}, {1, 1}, {1024, 1}, {1025, 2}, {4096, 4}}
	for _, c := range cases {
		if got := writeUnits(c.size); got != c.want {
			t.Errorf("writeUnits(%d) = %v, want %v", c.size, got, c.want)
		}
	}
	if got := readUnits(4096); got != 1 {
		t.Errorf("readUnits(4096) = %v, want 1", got)
	}
	if got := readUnits(4097); got != 2 {
		t.Errorf("readUnits(4097) = %v, want 2", got)
	}
}

func TestWriteThrottlingWithoutBurst(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 10, RCU: 10}, nil)
	// No burst banked yet (no prior quiet ticks): 11th 1-unit write throttles.
	var throttles int
	for i := 0; i < 15; i++ {
		if err := tb.PutItem(fmt.Sprintf("k%d", i), []byte("x")); err != nil {
			if !errors.Is(err, ErrThrottled) {
				t.Fatalf("unexpected error: %v", err)
			}
			throttles++
		}
	}
	if throttles != 5 {
		t.Fatalf("throttles = %d, want 5", throttles)
	}
	if tb.TickWriteThrottles() != 5 {
		t.Fatalf("TickWriteThrottles = %d, want 5", tb.TickWriteThrottles())
	}
}

func TestBurstCreditAbsorbsSpike(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 10, RCU: 10}, nil)
	// Bank credit over 3 quiet seconds: 30 unit-seconds.
	for i := 0; i < 3; i++ {
		tb.Tick(t0.Add(time.Duration(i)*time.Second), time.Second)
	}
	if got := tb.WriteBurstCredit(); math.Abs(got-30) > 1e-9 {
		t.Fatalf("burst credit = %v, want 30", got)
	}
	// Spike of 35 writes against budget 10: 25 served from burst, rest throttle.
	var ok, throttled int
	for i := 0; i < 40; i++ {
		if err := tb.PutItem(fmt.Sprintf("s%d", i), []byte("x")); err != nil {
			throttled++
		} else {
			ok++
		}
	}
	if ok != 40-throttled {
		t.Fatalf("bookkeeping mismatch")
	}
	if ok != 10+30 {
		t.Fatalf("accepted = %d, want 40 (10 budget + 30 burst)", ok)
	}
}

func TestBurstCreditCappedAt300Seconds(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 10, RCU: 10}, nil)
	for i := 0; i < 500; i++ {
		tb.Tick(t0.Add(time.Duration(i)*time.Second), time.Second)
	}
	if got, want := tb.WriteBurstCredit(), 10.0*BurstSeconds; math.Abs(got-want) > 1e-9 {
		t.Fatalf("burst credit = %v, want cap %v", got, want)
	}
}

func TestReadThrottling(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 10, RCU: 2}, nil)
	var throttles int
	for i := 0; i < 5; i++ {
		_, th := tb.ReadItemsUniform(t0, 1, 1)
		throttles += th
	}
	if throttles != 3 {
		t.Fatalf("read throttles = %d, want 3", throttles)
	}
}

func TestSetWriteCapacityClamps(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 10, RCU: 10, MinWCU: 5, MaxWCU: 100}, nil)
	tb.SetWriteCapacity(1000)
	if tb.WCU() != 100 {
		t.Fatalf("WCU = %v, want clamp to 100", tb.WCU())
	}
	tb.SetWriteCapacity(1)
	if tb.WCU() != 5 {
		t.Fatalf("WCU = %v, want clamp to 5", tb.WCU())
	}
	if err := tb.SetReadCapacity(-1); err == nil {
		t.Fatal("negative RCU accepted")
	}
	if err := tb.SetReadCapacity(50); err != nil || tb.RCU() != 50 {
		t.Fatalf("SetReadCapacity: %v, RCU=%v", err, tb.RCU())
	}
}

func TestTickScalesBudgetWithStep(t *testing.T) {
	tb := mustTable(t, Config{Name: "t", WCU: 10, RCU: 10}, nil)
	tb.Tick(t0, time.Minute) // budget now 600 units/tick
	var accepted int
	for i := 0; i < 700; i++ {
		if err := tb.PutItem(fmt.Sprintf("k%d", i), []byte("x")); err == nil {
			accepted++
		}
	}
	// 600 budget + 600 banked burst from the quiet first minute.
	if accepted != 700 {
		t.Fatalf("accepted = %d, want 700 (600 budget + burst)", accepted)
	}
}

func TestMetricsPublished(t *testing.T) {
	ms := metricstore.NewStore()
	tb := mustTable(t, Config{Name: "agg", WCU: 20, RCU: 10}, ms)
	for i := 0; i < 10; i++ {
		tb.PutItem(fmt.Sprintf("k%d", i), []byte("x"))
	}
	tb.Tick(t0, time.Second)
	d := map[string]string{"TableName": "agg"}
	consumed, ok := storeLatest(ms, Namespace, MetricConsumedWCU, d)
	if !ok || consumed.V != 10 {
		t.Fatalf("ConsumedWCU = %+v ok=%v, want 10", consumed, ok)
	}
	prov, _ := storeLatest(ms, Namespace, MetricProvisionedWCU, d)
	if prov.V != 20 {
		t.Fatalf("ProvisionedWCU = %v, want 20", prov.V)
	}
	util, _ := storeLatest(ms, Namespace, MetricWriteUtilization, d)
	if math.Abs(util.V-50) > 1e-9 {
		t.Fatalf("WriteUtilization = %v, want 50", util.V)
	}
	items, _ := storeLatest(ms, Namespace, MetricItemCount, d)
	if items.V != 10 {
		t.Fatalf("ItemCount = %v, want 10", items.V)
	}
}

func TestThrottleCountersResetEachTick(t *testing.T) {
	ms := metricstore.NewStore()
	tb := mustTable(t, Config{Name: "t", WCU: 1, RCU: 1}, ms)
	tb.PutItem("a", []byte("x"))
	tb.PutItem("b", []byte("x")) // throttled
	tb.Tick(t0, time.Second)
	d := map[string]string{"TableName": "t"}
	th, _ := storeLatest(ms, Namespace, MetricThrottledWrites, d)
	if th.V != 1 {
		t.Fatalf("throttles = %v, want 1", th.V)
	}
	tb.Tick(t0.Add(time.Second), time.Second)
	th, _ = storeLatest(ms, Namespace, MetricThrottledWrites, d)
	if th.V != 0 {
		t.Fatalf("throttles after quiet tick = %v, want 0", th.V)
	}
}
