package kvstore

import "time"

// Aggregate (count-based) writes. The per-item API (PutItem) is the
// faithful DynamoDB model; the batch path below admits n uniform writes
// against the same budget-then-burst accounting in closed form, so a tick
// that persists thousands of aggregated counters costs O(partitions)
// instead of O(items). Both paths coexist on one table.

// PutItemsUniform writes n items of size bytes each with keys spread
// uniformly over the table's partitions, consuming WCU. Items beyond the
// provisioned-plus-burst capacity are throttled. It returns the accepted
// and throttled counts. The items are accounted (capacity, metrics, item
// count) but not materialised.
func (t *Table) PutItemsUniform(now time.Time, n, size int) (accepted, throttled int) {
	_ = now // mirrors PutItem's shape; the table is tick-clocked internally
	if n <= 0 {
		return 0, 0
	}
	units := writeUnits(size)

	if p := len(t.partitions); p > 1 {
		// Uniform keys spread evenly over partitions; admit each
		// partition's share against its slice of the budget.
		each, rem := n/p, n%p
		for i := range t.partitions {
			share := each
			if i < rem {
				share++
			}
			ok := t.admitUnits(&t.partitions[i].tickWCU, &t.partitions[i].writeBurst,
				t.partitionBudget(t.wcu*t.stepSeconds), share, units)
			accepted += ok
			throttled += share - ok
		}
		// Partition admission implies table-level accounting, as PutItem's
		// partition path does: the table-wide counters mirror the sums.
		t.tickWCU += float64(accepted) * units
		t.tickWriteThrottle += throttled
		t.noteAggregateItems(accepted)
		return accepted, throttled
	}

	ok := t.admitUnits(&t.tickWCU, &t.writeBurst, t.wcu*t.stepSeconds, n, units)
	accepted = ok
	throttled = n - ok
	t.tickWriteThrottle += throttled
	t.noteAggregateItems(accepted)
	return accepted, throttled
}

// admitUnits admits up to n requests of `units` capacity units each against a
// tick budget with burst-credit spillover, updating the consumed counter
// and burst bucket. It is the closed form of the per-request charge:
// requests consume the remaining tick budget first, then draw the
// overflow from burst credit.
func (t *Table) admitUnits(consumed *float64, burst *float64, budget float64, n int, units float64) int {
	if n <= 0 || units <= 0 {
		return n
	}
	free := budget - *consumed
	if free < 0 {
		free = 0
	}
	capacity := free + *burst
	ok := int(capacity / units)
	if ok > n {
		ok = n
	}
	used := float64(ok) * units
	if used > free {
		*burst -= used - free
	}
	*consumed += used
	return ok
}

// ReadItemsUniform performs n reads of size bytes each with keys spread
// uniformly over the table's partitions, consuming RCU. Reads beyond the
// provisioned-plus-burst capacity are throttled. It returns the accepted
// and throttled counts. Like PutItemsUniform, the reads are accounted
// without touching materialised items — the dashboard read workload only
// exercises the capacity model.
func (t *Table) ReadItemsUniform(now time.Time, n, size int) (accepted, throttled int) {
	_ = now
	if n <= 0 {
		return 0, 0
	}
	units := readUnits(size)

	if p := len(t.partitions); p > 1 {
		each, rem := n/p, n%p
		for i := range t.partitions {
			share := each
			if i < rem {
				share++
			}
			ok := t.admitUnits(&t.partitions[i].tickRCU, &t.partitions[i].readBurst,
				t.partitionBudget(t.rcu*t.stepSeconds), share, units)
			accepted += ok
			throttled += share - ok
		}
		t.tickRCU += float64(accepted) * units
		t.tickReadThrottle += throttled
		return accepted, throttled
	}

	ok := t.admitUnits(&t.tickRCU, &t.readBurst, t.rcu*t.stepSeconds, n, units)
	accepted = ok
	throttled = n - ok
	t.tickReadThrottle += throttled
	return accepted, throttled
}

// noteAggregateItems tracks the high-water mark of batch-written items so
// ItemCount stays meaningful: batch keys are reused across ticks (like the
// per-record sink's "agg-i" keys), so the distinct-key count is the largest
// batch, not the sum.
func (t *Table) noteAggregateItems(n int) {
	if n > t.aggItems {
		t.aggItems = n
	}
}
