package kvstore

import (
	"fmt"
	"testing"
	"time"
)

func batchNow() time.Time { return time.Unix(1700000000, 0) }

// newBatchTable builds a fresh table with no store attached.
func newBatchTable(t *testing.T, cfg Config) *Table {
	t.Helper()
	tb, err := NewTable(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestPutItemsUniformWithinBudget(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 100, RCU: 10})
	acc, rej := tb.PutItemsUniform(batchNow(), 80, 512) // 1 WCU each
	if acc != 80 || rej != 0 {
		t.Errorf("accepted/throttled = %d/%d, want 80/0", acc, rej)
	}
	if got := tb.TickWCUConsumed(); got != 80 {
		t.Errorf("consumed = %v, want 80", got)
	}
}

func TestPutItemsUniformThrottlesBeyondBudgetAndBurst(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 100, RCU: 10})
	// Fresh table has zero burst credit banked.
	acc, rej := tb.PutItemsUniform(batchNow(), 250, 512)
	if acc != 100 || rej != 150 {
		t.Errorf("accepted/throttled = %d/%d, want 100/150", acc, rej)
	}
	if got := tb.TickWriteThrottles(); got != 150 {
		t.Errorf("throttle metric = %d, want 150", got)
	}
}

func TestPutItemsUniformDrawsBurst(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 100, RCU: 10})
	// Bank a tick of unused capacity, then exceed the budget by 50.
	tb.Tick(batchNow(), time.Second)
	if tb.WriteBurstCredit() != 100 {
		t.Fatalf("burst = %v, want 100 banked", tb.WriteBurstCredit())
	}
	acc, rej := tb.PutItemsUniform(batchNow(), 150, 512)
	if acc != 150 || rej != 0 {
		t.Errorf("accepted/throttled = %d/%d, want 150/0", acc, rej)
	}
	if got := tb.WriteBurstCredit(); got != 50 {
		t.Errorf("burst after draw = %v, want 50", got)
	}
}

func TestPutItemsUniformMatchesPerItemLoop(t *testing.T) {
	// The closed form must admit exactly as many items as the per-item
	// loop for equal-size items, across budget and burst regimes.
	for _, n := range []int{0, 1, 50, 100, 101, 237, 1000} {
		batch := newBatchTable(t, Config{Name: "b", WCU: 100, RCU: 10})
		perItem := newBatchTable(t, Config{Name: "p", WCU: 100, RCU: 10})
		// Bank one identical tick of burst on both.
		batch.Tick(batchNow(), time.Second)
		perItem.Tick(batchNow(), time.Second)

		accB, _ := batch.PutItemsUniform(batchNow(), n, 300)
		accP := 0
		for i := 0; i < n; i++ {
			if err := perItem.PutItem(fmt.Sprintf("k-%d", i), 300); err == nil {
				accP++
			}
		}
		if accB != accP {
			t.Errorf("n=%d: batch accepted %d, per-item accepted %d", n, accB, accP)
		}
		if batch.TickWCUConsumed() != perItem.TickWCUConsumed() {
			t.Errorf("n=%d: consumed %v vs %v", n, batch.TickWCUConsumed(), perItem.TickWCUConsumed())
		}
	}
}

func TestPutItemsUniformMultiUnitItems(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 100, RCU: 10})
	// 3 KiB items cost 3 WCU each → 33 items fit in a 100-unit tick.
	acc, rej := tb.PutItemsUniform(batchNow(), 50, 3*1024)
	if acc != 33 || rej != 17 {
		t.Errorf("accepted/throttled = %d/%d, want 33/17", acc, rej)
	}
}

func TestPutItemsUniformPartitioned(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 100, RCU: 10, Partitions: 4})
	// Each partition gets a 25-unit slice; 200 uniform 1-WCU items offer
	// 50 per partition, so each accepts 25.
	acc, rej := tb.PutItemsUniform(batchNow(), 200, 512)
	if acc != 100 || rej != 100 {
		t.Errorf("accepted/throttled = %d/%d, want 100/100", acc, rej)
	}
	if got := tb.TickWCUConsumed(); got != 100 {
		t.Errorf("consumed = %v, want 100", got)
	}
}

func TestPutItemsUniformZeroAndNegative(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 100, RCU: 10})
	if acc, rej := tb.PutItemsUniform(batchNow(), 0, 100); acc != 0 || rej != 0 {
		t.Errorf("n=0: got %d/%d", acc, rej)
	}
	if acc, rej := tb.PutItemsUniform(batchNow(), -5, 100); acc != 0 || rej != 0 {
		t.Errorf("n<0: got %d/%d", acc, rej)
	}
}

func TestItemCountTracksBatchHighWater(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 1000, RCU: 10})
	tb.PutItemsUniform(batchNow(), 40, 100)
	if got := tb.ItemCount(); got != 40 {
		t.Errorf("ItemCount = %d, want 40", got)
	}
	tb.Tick(batchNow(), time.Second)
	tb.PutItemsUniform(batchNow(), 25, 100)
	if got := tb.ItemCount(); got != 40 {
		t.Errorf("ItemCount after smaller batch = %d, want 40 (high water)", got)
	}
	// Materialised items add on top.
	if err := tb.PutItem("real", 1); err != nil {
		t.Fatal(err)
	}
	if got := tb.ItemCount(); got != 41 {
		t.Errorf("ItemCount with real item = %d, want 41", got)
	}
}

func TestPutItemsUniformTickResetsBudget(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 100, RCU: 10})
	acc1, _ := tb.PutItemsUniform(batchNow(), 100, 512)
	tb.Tick(batchNow(), time.Second)
	acc2, _ := tb.PutItemsUniform(batchNow(), 100, 512)
	if acc1 != 100 || acc2 != 100 {
		t.Errorf("accepted = %d then %d, want 100 both ticks", acc1, acc2)
	}
}

func TestReadItemsUniformWithinBudget(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 10, RCU: 100})
	acc, rej := tb.ReadItemsUniform(batchNow(), 80, 2048) // 1 RCU each (≤4 KiB)
	if acc != 80 || rej != 0 {
		t.Errorf("accepted/throttled = %d/%d, want 80/0", acc, rej)
	}
}

func TestReadItemsUniformThrottles(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 10, RCU: 100})
	acc, rej := tb.ReadItemsUniform(batchNow(), 250, 2048)
	if acc != 100 || rej != 150 {
		t.Errorf("accepted/throttled = %d/%d, want 100/150", acc, rej)
	}
}

func TestReadItemsUniformDrawsReadBurst(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 10, RCU: 100})
	tb.Tick(batchNow(), time.Second) // bank 100 read units
	acc, rej := tb.ReadItemsUniform(batchNow(), 150, 2048)
	if acc != 150 || rej != 0 {
		t.Errorf("accepted/throttled = %d/%d, want 150/0 via burst", acc, rej)
	}
}

func TestReadItemsUniformMultiUnit(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 10, RCU: 100})
	// 12 KiB reads cost 3 RCU each → 33 fit.
	acc, rej := tb.ReadItemsUniform(batchNow(), 50, 12*1024)
	if acc != 33 || rej != 17 {
		t.Errorf("accepted/throttled = %d/%d, want 33/17", acc, rej)
	}
}

func TestReadItemsUniformPartitioned(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 10, RCU: 100, Partitions: 4})
	acc, rej := tb.ReadItemsUniform(batchNow(), 200, 2048)
	if acc != 100 || rej != 100 {
		t.Errorf("accepted/throttled = %d/%d, want 100/100", acc, rej)
	}
}

func TestSetReadCapacityClampsToBounds(t *testing.T) {
	tb := newBatchTable(t, Config{Name: "t", WCU: 10, RCU: 100, MinRCU: 50, MaxRCU: 500})
	if err := tb.SetReadCapacity(10); err != nil {
		t.Fatal(err)
	}
	if got := tb.RCU(); got != 50 {
		t.Errorf("RCU = %v, want clamped to 50", got)
	}
	if err := tb.SetReadCapacity(9999); err != nil {
		t.Fatal(err)
	}
	if got := tb.RCU(); got != 500 {
		t.Errorf("RCU = %v, want clamped to 500", got)
	}
	if err := tb.SetReadCapacity(-1); err == nil {
		t.Error("negative RCU accepted")
	}
}
