package kvstore

// Property-based tests of the table's capacity accounting: whatever the
// request pattern, consumption never exceeds budget-plus-burst, burst
// credit stays within its documented bank, and the batch path agrees with
// the per-item path.

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func propNow() time.Time { return time.Unix(1700000000, 0) }

func TestWriteNeverExceedsBudgetPlusBurstProperty(t *testing.T) {
	f := func(sizesRaw []uint16, wcuRaw uint8) bool {
		wcu := float64(wcuRaw%200) + 1
		tb, err := NewTable(Config{Name: "t", WCU: wcu, RCU: 10}, nil)
		if err != nil {
			return false
		}
		// A few ticks of traffic; track the invariant each tick.
		idx := 0
		for tick := 0; tick < 4; tick++ {
			budget := wcu * 1.0 // stepSeconds = 1
			burstBefore := tb.WriteBurstCredit()
			for n := 0; n < 40 && idx < len(sizesRaw); n++ {
				size := int(sizesRaw[idx]%4096) + 1
				idx++
				_ = tb.PutItem(fmt.Sprintf("k-%d-%d", tick, n), size)
			}
			if tb.TickWCUConsumed() > budget+burstBefore+1e-9 {
				return false
			}
			tb.Tick(propNow().Add(time.Duration(tick)*time.Second), time.Second)
			// Burst bank never exceeds BurstSeconds of provisioned capacity.
			if tb.WriteBurstCredit() > wcu*BurstSeconds+1e-9 || tb.WriteBurstCredit() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBatchMatchesPerItemProperty(t *testing.T) {
	f := func(nRaw uint16, sizeRaw uint16, wcuRaw uint8, warmTicks uint8) bool {
		n := int(nRaw % 2048)
		size := int(sizeRaw%8192) + 1
		wcu := float64(wcuRaw%250) + 1
		warm := int(warmTicks % 4)

		mk := func(name string) *Table {
			tb, err := NewTable(Config{Name: name, WCU: wcu, RCU: 10}, nil)
			if err != nil {
				return nil
			}
			for i := 0; i < warm; i++ {
				tb.Tick(propNow(), time.Second) // bank identical burst credit
			}
			return tb
		}
		batch, perItem := mk("b"), mk("p")
		if batch == nil || perItem == nil {
			return false
		}

		accB, rejB := batch.PutItemsUniform(propNow(), n, size)
		accP := 0
		for i := 0; i < n; i++ {
			if err := perItem.PutItem(fmt.Sprintf("k-%d", i), size); err == nil {
				accP++
			}
		}
		if accB != accP || accB+rejB != n {
			return false
		}
		return batch.TickWCUConsumed() == perItem.TickWCUConsumed() &&
			batch.WriteBurstCredit() == perItem.WriteBurstCredit()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCapacityChangeKeepsAccountingSaneProperty(t *testing.T) {
	f := func(caps []uint8) bool {
		tb, err := NewTable(Config{Name: "t", WCU: 100, RCU: 10, MinWCU: 1, MaxWCU: 10000}, nil)
		if err != nil {
			return false
		}
		for i, c := range caps {
			if i >= 8 {
				break
			}
			_ = tb.SetWriteCapacity(float64(c) + 1)
			acc, rej := tb.PutItemsUniform(propNow(), 200, 512)
			if acc < 0 || rej < 0 || acc+rej != 200 {
				return false
			}
			tb.Tick(propNow().Add(time.Duration(i)*time.Second), time.Second)
			if tb.WriteBurstCredit() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
